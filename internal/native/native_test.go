package native

import (
	"fmt"
	"runtime"
	"sync"
	"testing"
	"unsafe"

	"repro/internal/shmem"
)

func TestMemAllocPeekPokeName(t *testing.T) {
	m := NewMem(8)
	a, err := m.Alloc("head", 1)
	if err != nil {
		t.Fatalf("Alloc: %v", err)
	}
	b := m.MustAlloc("nodes", 3)
	if m.Allocated() != 4 || m.Capacity() != 8 {
		t.Fatalf("Allocated=%d Capacity=%d, want 4, 8", m.Allocated(), m.Capacity())
	}
	m.Poke(a, 7)
	if m.Peek(a) != 7 {
		t.Fatalf("Peek(a) = %d, want 7", m.Peek(a))
	}
	if got := m.Name(a); got != "head" {
		t.Errorf("Name(a) = %q, want %q", got, "head")
	}
	if got := m.Name(b + 2); got != "nodes[2]" {
		t.Errorf("Name(b+2) = %q, want %q", got, "nodes[2]")
	}
	if got := m.Name(7); got != "word7" {
		t.Errorf("Name(unallocated) = %q, want %q", got, "word7")
	}
	if _, err := m.Alloc("huge", 5); err == nil {
		t.Error("over-capacity Alloc should fail")
	}
}

// TestMemAllocLineAligned pins the allocation layout: the backing array is
// line-aligned, every allocation starts a cache line while the padding
// reserve lasts and packs densely after it, Capacity/Allocated count data
// words only, padding never makes Alloc fail, and Name still resolves.
func TestMemAllocLineAligned(t *testing.T) {
	const singles = 100
	m := NewMem(singles)
	if a := uintptr(unsafe.Pointer(&m.words[0])); a%cacheLine != 0 {
		t.Fatalf("backing array at %#x, not line-aligned", a)
	}
	// The first allocation needs no pad; each later single-word one needs
	// lineWords-1, so the reserve aligns exactly this many more.
	aligned := 1 + linePadReserve/(lineWords-1)
	var prev shmem.Addr
	for i := 0; i < singles; i++ {
		a := m.MustAlloc(fmt.Sprintf("s%d", i), 1)
		switch {
		case i < aligned && int(a) != i*lineWords:
			t.Fatalf("alloc %d at %d, want line start %d", i, a, i*lineWords)
		case i >= aligned && a != prev+1:
			t.Fatalf("alloc %d at %d, want dense after the reserve at %d", i, a, prev+1)
		}
		if got, want := m.Name(a), fmt.Sprintf("s%d", i); got != want {
			t.Fatalf("Name(%d) = %q, want %q", a, got, want)
		}
		prev = a
	}
	if m.Allocated() != singles || m.Capacity() != singles {
		t.Fatalf("Allocated=%d Capacity=%d, want %d, %d", m.Allocated(), m.Capacity(), singles, singles)
	}
	if _, err := m.Alloc("over", 1); err == nil {
		t.Fatal("Alloc past the data capacity should fail")
	}

	// Mixed sizes: bases stay on line starts, and the data capacity is
	// usable to the last word whatever the padding spent.
	m = NewMem(64)
	total := 0
	for _, n := range []int{3, 1, 9, 8, 5, 2} {
		a := m.MustAlloc("m", n)
		if a%lineWords != 0 {
			t.Fatalf("%d-word alloc at %d, not a line start", n, a)
		}
		if got := m.Name(a + shmem.Addr(n-1)); n > 1 && got != fmt.Sprintf("m[%d]", n-1) {
			t.Fatalf("Name(last word of %d-word alloc) = %q", n, got)
		}
		total += n
	}
	m.MustAlloc("rest", 64-total)
	if m.Allocated() != 64 {
		t.Fatalf("Allocated = %d after filling, want 64", m.Allocated())
	}
}

func TestCAS2Semantics(t *testing.T) {
	m := NewMem(4)
	a := m.MustAlloc("a", 1)
	b := m.MustAlloc("b", 1)
	m.Poke(a, 1)
	m.Poke(b, 2)
	if ok, _ := m.cas2(a, b, 9, 2, 10, 20); ok {
		t.Fatal("CAS2 succeeded with wrong old1")
	}
	if ok, _ := m.cas2(a, b, 1, 9, 10, 20); ok {
		t.Fatal("CAS2 succeeded with wrong old2")
	}
	if m.Peek(a) != 1 || m.Peek(b) != 2 {
		t.Fatal("failed CAS2 modified memory")
	}
	if ok, _ := m.cas2(a, b, 1, 2, 10, 20); !ok {
		t.Fatal("CAS2 failed with matching olds")
	}
	if m.Peek(a) != 10 || m.Peek(b) != 20 {
		t.Fatalf("CAS2 left (%d,%d), want (10,20)", m.Peek(a), m.Peek(b))
	}
}

// TestCAS2Concurrent hammers the guard emulation from free-running
// goroutines on a (version, value) pair, gclist-style: each success must be
// exactly one atomic (ver+1, val+2) transition, so the final words equal
// the success totals.
func TestCAS2Concurrent(t *testing.T) {
	m := NewMem(4)
	ver := m.MustAlloc("ver", 1)
	val := m.MustAlloc("val", 1)
	const procs, perProc = 8, 2000
	wins := make([]uint64, procs)
	var wg sync.WaitGroup
	for i := 0; i < procs; i++ {
		wg.Add(1)
		go func(i int) {
			defer wg.Done()
			for n := 0; n < perProc; n++ {
				for {
					v := m.load(ver)
					x := m.load(val)
					if ok, _ := m.cas2(ver, val, v, x, v+1, x+2); ok {
						wins[i]++
						break
					}
				}
			}
		}(i)
	}
	wg.Wait()
	var total uint64
	for _, w := range wins {
		total += w
	}
	if total != procs*perProc {
		t.Fatalf("wins = %d, want %d", total, procs*perProc)
	}
	if m.Peek(ver) != total || m.Peek(val) != 2*total {
		t.Fatalf("final (ver,val) = (%d,%d), want (%d,%d)", m.Peek(ver), m.Peek(val), total, 2*total)
	}
}

// TestShardSerializesEqualPriorities: equal-priority processes on one shard
// never preempt each other, so Begin/End windows are mutually exclusive.
// The plain (unsynchronized) counter is the assertion: a lost update fails
// the count and any overlap is a data race the race detector reports.
func TestShardSerializesEqualPriorities(t *testing.T) {
	m := NewMem(8)
	scratch := m.MustAlloc("scratch", 1)
	w := NewWorld(m, 1)
	const procs, perProc = 8, 400
	counter := 0
	var wg sync.WaitGroup
	for i := 0; i < procs; i++ {
		wg.Add(1)
		go func(i int) {
			defer wg.Done()
			p := w.NewProc(i, 0, 0)
			for n := 0; n < perProc; n++ {
				p.Begin()
				v := counter
				// Memory operations are preemption points; with equal
				// priorities they must not hand the shard away.
				p.Store(scratch, uint64(v))
				p.Load(scratch)
				counter = v + 1
				p.End()
			}
		}(i)
	}
	wg.Wait()
	if counter != procs*perProc {
		t.Fatalf("counter = %d, want %d (shard windows overlapped)", counter, procs*perProc)
	}
}

// TestShardPreemptsHigherPriority proves preemption actually happens: a
// low-priority process spins inside one Begin/End window until a value only
// a higher-priority arrival can write. If the arrival could not preempt
// mid-window, the spin would never terminate.
func TestShardPreemptsHigherPriority(t *testing.T) {
	m := NewMem(8)
	scratch := m.MustAlloc("scratch", 1)
	flagAddr := m.MustAlloc("flag", 1)
	w := NewWorld(m, 1)
	low := w.NewProc(0, 0, 1)
	high := w.NewProc(1, 0, 9)

	started := make(chan struct{})
	done := make(chan struct{})
	go func() {
		defer close(done)
		low.Begin()
		close(started)
		for low.Load(flagAddr) == 0 {
		}
		low.End()
	}()
	<-started
	high.Begin() // blocks until low yields at a preemption point
	high.Store(flagAddr, 1)
	high.Store(scratch, 2)
	high.End()
	<-done
}

// TestShardNoPreemptMasksPreemption: inside NoPreempt, memory operations
// must not hand the shard away even to a higher priority; the handoff
// happens at the section's end.
func TestShardNoPreemptMasksPreemption(t *testing.T) {
	m := NewMem(8)
	scratch := m.MustAlloc("scratch", 1)
	w := NewWorld(m, 1)
	low := w.NewProc(0, 0, 1)
	high := w.NewProc(1, 0, 9)

	inSection := make(chan struct{})
	highDone := make(chan struct{})
	witness := 0
	go func() {
		low.Begin()
		low.NoPreempt(func() {
			close(inSection)
			// Give the high-priority proc time to queue up, then cross
			// many preemption points; none may yield.
			for i := 0; i < 50_000; i++ {
				low.Store(scratch, uint64(i))
			}
			select {
			case <-highDone:
				witness = 1
			default:
			}
		})
		low.End()
	}()
	<-inSection
	high.Begin()
	high.Store(scratch, 99)
	high.End()
	close(highDone)
	if witness == 1 {
		t.Fatal("high-priority process ran inside the low process's NoPreempt section")
	}
}

// TestGuardedCASMasksPreemption: a higher-priority waiter queued before the
// window opens must not run between GuardedCAS's version load and its CAS —
// it would move both words and fail the CAS — and must run right after the
// window closes, before GuardedCAS returns.
func TestGuardedCASMasksPreemption(t *testing.T) {
	m := NewMem(8)
	v := m.MustAlloc("V", 1)
	x := m.MustAlloc("X", 1)
	w := NewWorld(m, 1)
	low := w.NewProc(0, 0, 1)
	high := w.NewProc(1, 0, 9)

	low.Begin()
	highRan := make(chan struct{}) // closed inside high's shard tenure
	highDone := make(chan struct{})
	go func() {
		high.Begin()
		high.Store(v, 1)
		high.Store(x, 99)
		close(highRan)
		high.End()
		close(highDone)
	}()
	// Wait until high is queued and the preemption flag is up: every
	// preemption point low crosses from here on must hand the shard over.
	for !low.shard.wanted.Load() {
		runtime.Gosched()
	}
	ok := low.GuardedCAS(v, 0, x, 0, 7)
	handedOff := false
	select {
	case <-highRan:
		handedOff = true
	default:
	}
	low.End()
	<-highDone
	if !ok {
		t.Fatal("GuardedCAS failed: the high-priority waiter ran inside the window")
	}
	if !handedOff {
		t.Fatal("GuardedCAS returned before handing the shard to the waiting higher priority")
	}
	if got := m.Peek(x); got != 99 {
		t.Fatalf("X = %d, want 99 (high's store after the window)", got)
	}
	if low.Counts.Loads != 1 || low.Counts.CAS != 1 {
		t.Fatalf("GuardedCAS counted %d loads and %d CAS, want 1 and 1", low.Counts.Loads, low.Counts.CAS)
	}
}

// TestPickNextOrder checks the scheduler's choice rule directly: highest
// priority wins between the preempted stack and the arrivals, with the
// preempted process winning ties.
func TestPickNextOrder(t *testing.T) {
	mk := func(prio shmem.Priority) *Proc { return &Proc{prio: prio} }
	s := &shard{}
	p3, p5a, p5b, p7 := mk(3), mk(5), mk(5), mk(7)
	s.preempted = []*Proc{p3, p5a} // stack: p5a on top
	s.waiting = []*Proc{p5b, p7}

	if got := s.pickNextLocked(); got != p7 {
		t.Fatalf("pick 1: got prio %d, want the prio-7 arrival", got.prio)
	}
	if got := s.pickNextLocked(); got != p5a {
		t.Fatalf("pick 2: got prio %d, want the preempted prio-5 (tie goes to the stack)", got.prio)
	}
	if got := s.pickNextLocked(); got != p5b {
		t.Fatalf("pick 3: got prio %d, want the waiting prio-5", got.prio)
	}
	if got := s.pickNextLocked(); got != p3 {
		t.Fatalf("pick 4: got prio %d, want the preempted prio-3", got.prio)
	}
	if got := s.pickNextLocked(); got != nil {
		t.Fatalf("pick 5: got prio %d, want nil (shard idle)", got.prio)
	}
}

// TestShardLayout pins the shard padding: the wanted flag that every runner
// polls at each memory operation starts a cache line and owns it, and the
// struct spans whole lines, so neither this shard's mutex nor the next
// allocation's can share the flag's line.
func TestShardLayout(t *testing.T) {
	var s shard
	off, size := unsafe.Offsetof(s.wanted), unsafe.Sizeof(s)
	if off%cacheLine != 0 {
		t.Errorf("wanted at offset %d, want a multiple of %d", off, cacheLine)
	}
	if end := unsafe.Offsetof(s.preempted) + unsafe.Sizeof(s.preempted); end > off {
		t.Errorf("preempted ends at %d, past wanted at %d", end, off)
	}
	if size != off+cacheLine {
		t.Errorf("shard is %d bytes, want %d: wanted must own the last line alone", size, off+cacheLine)
	}
	w := NewWorld(NewMem(8), 4)
	for i, sh := range w.shards {
		if a := uintptr(unsafe.Pointer(&sh.wanted)); a%cacheLine != 0 {
			t.Errorf("shard %d: wanted at %#x, not line-aligned", i, a)
		}
	}
}

func TestCCASNativePanics(t *testing.T) {
	m := NewMem(8)
	v := m.MustAlloc("v", 1)
	x := m.MustAlloc("x", 1)
	w := NewFreeWorld(m)
	p := w.NewProc(0, 0, 0)
	defer func() {
		if recover() == nil {
			t.Fatal("CCASNative should panic on the native backend")
		}
	}()
	p.CCASNative(v, 1, x, 0, 1)
}
