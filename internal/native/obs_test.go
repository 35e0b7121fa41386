package native

import (
	"os"
	"sync"
	"sync/atomic"
	"testing"
	"time"

	"repro/internal/shmem"
	"repro/internal/trace"
	"repro/internal/tracex"
)

// TestObsDisabledAllocFree pins the zero-overhead-when-disabled contract's
// allocation half: the full Begin/op/End hot path of a world that never
// called EnableObs allocates nothing.
func TestObsDisabledAllocFree(t *testing.T) {
	m := NewMem(64)
	a := m.MustAlloc("w", 1)
	w := NewWorld(m, 1)
	p := w.NewProc(0, 0, 1)
	allocs := testing.AllocsPerRun(200, func() {
		p.Begin()
		v := p.Load(a)
		p.Store(a, v+1)
		p.CAS(a, v+1, v+2)
		p.GuardedCAS(a, v+2, a, v+2, v+3)
		p.NoPreempt(func() { p.Store(a, v+4) })
		p.End()
	})
	if allocs != 0 {
		t.Fatalf("disabled-observability hot path allocates %.1f per op, want 0", allocs)
	}
}

// baselineProc replicates the minimal native step (one atomic access on a
// directly held word slice, one unsynchronized counter increment, one load
// of the shard's wanted flag with an out-of-line slow path) as a
// measurement floor for the ns/op gate below. load and store are noinline
// to mirror the real call structure: Proc.Load and Proc.Store are too big
// to inline, while the flag check is inlined into them (ci.sh checks that
// Proc.point stays inlinable), so the floor inlines it too.
type baselineProc struct {
	words  []uint64
	loads  uint64
	stores uint64
	wanted *atomic.Bool
}

//go:noinline
func (p *baselineProc) slow() {}

//go:noinline
func (p *baselineProc) load(a shmem.Addr) uint64 {
	v := atomic.LoadUint64(&p.words[a])
	p.loads++
	if p.wanted != nil && p.wanted.Load() {
		p.slow()
	}
	return v
}

//go:noinline
func (p *baselineProc) store(a shmem.Addr, v uint64) {
	atomic.StoreUint64(&p.words[a], v)
	p.stores++
	if p.wanted != nil && p.wanted.Load() {
		p.slow()
	}
}

// TestObsDisabledNsGate is the timing half of the contract, mirroring the
// simulator-core CI gate: with observability off, a Load/Store pair
// through Proc must stay within 25% of the replicated minimal step. Set
// WF_SKIP_PERF_GATE=1 on hosts too noisy for timing assertions (the CI
// gate honors the same variable).
func TestObsDisabledNsGate(t *testing.T) {
	if os.Getenv("WF_SKIP_PERF_GATE") != "" {
		t.Skip("WF_SKIP_PERF_GATE set")
	}
	if testing.Short() {
		t.Skip("timing gate skipped in -short mode")
	}
	if RaceEnabled {
		t.Skip("wall-clock ratios are not meaningful under -race")
	}
	m := NewMem(64)
	a := m.MustAlloc("w", 1)
	w := NewWorld(m, 1)
	p := w.NewProc(0, 0, 1)
	p.Begin()
	defer p.End()
	base := &baselineProc{words: m.words, wanted: &p.shard.wanted}

	const iters = 1 << 20
	measure := func(f func()) time.Duration {
		best := time.Duration(1<<63 - 1)
		for round := 0; round < 5; round++ {
			start := time.Now()
			f()
			if d := time.Since(start); d < best {
				best = d
			}
		}
		return best
	}
	procLoop := func() {
		for i := 0; i < iters; i++ {
			v := p.Load(a)
			p.Store(a, v+1)
		}
	}
	baseLoop := func() {
		for i := 0; i < iters; i++ {
			v := base.load(a)
			base.store(a, v+1)
		}
	}
	procLoop() // warm up both paths before timing
	baseLoop()
	got := measure(procLoop)
	floor := measure(baseLoop)
	if floor <= 0 {
		t.Skip("clock too coarse to gate")
	}
	ratio := float64(got) / float64(floor)
	t.Logf("disabled-obs hot path: %.2f ns/op vs floor %.2f ns/op (ratio %.3f)",
		float64(got)/(2*iters), float64(floor)/(2*iters), ratio)
	if ratio > 1.25 {
		t.Fatalf("disabled-observability hot path is %.2fx the pre-observability floor, gate is 1.25x", ratio)
	}
}

func TestRingOverwriteOldest(t *testing.T) {
	r := &evRing{buf: make([]recEvent, 8)}
	for i := 0; i < 20; i++ {
		r.push(recEvent{seq: uint64(i + 1)})
	}
	evs, dropped := r.oldestFirst()
	if dropped != 12 {
		t.Fatalf("dropped = %d, want 12", dropped)
	}
	if len(evs) != 8 {
		t.Fatalf("retained %d events, want 8", len(evs))
	}
	for i, ev := range evs {
		if want := uint64(13 + i); ev.seq != want {
			t.Fatalf("retained[%d].seq = %d, want %d (oldest-first order broken)", i, ev.seq, want)
		}
	}
}

// TestObsStatsAndDrain runs a small contended uni-shard workload with both
// layers on and checks the counter blocks, the latency histograms, and
// that the drained flight recording is a well-formed trace.Log from which
// tracex reconstructs the run's op spans.
func TestObsStatsAndDrain(t *testing.T) {
	const procs, ops = 3, 50
	m := NewMem(256)
	a := m.MustAlloc("w", 1)
	w := NewWorld(m, 1)
	w.EnableObs(ObsConfig{Metrics: true, Recorder: true})
	ps := make([]*Proc, procs)
	for i := range ps {
		ps[i] = w.NewProc(i, 0, shmem.Priority(i))
	}
	var wg sync.WaitGroup
	for i := range ps {
		wg.Add(1)
		go func(p *Proc) {
			defer wg.Done()
			for n := 0; n < ops; n++ {
				p.Begin()
				for {
					v := p.Load(a)
					if p.CAS(a, v, v+1) {
						break
					}
				}
				p.End()
			}
		}(ps[i])
	}
	wg.Wait()

	for i, p := range ps {
		s := p.Stats()
		if s == nil {
			t.Fatalf("proc %d: Stats() = nil with metrics enabled", i)
		}
		if s.Ops != ops {
			t.Errorf("proc %d: Ops = %d, want %d", i, s.Ops, ops)
		}
		if s.Dispatches < ops {
			t.Errorf("proc %d: Dispatches = %d, want >= %d (one per op)", i, s.Dispatches, ops)
		}
		if s.Latency == nil || s.Latency.Count != ops {
			t.Errorf("proc %d: latency histogram count = %v, want %d samples", i, s.Latency, ops)
		}
	}
	if m.Peek(a) != procs*ops {
		t.Fatalf("counter word = %d, want %d", m.Peek(a), procs*ops)
	}

	l := w.DrainTrace() // panics internally if per-CPU monotonicity broke
	if l == nil {
		t.Fatal("DrainTrace returned nil with the recorder enabled")
	}
	if w.DroppedEvents() != 0 {
		t.Fatalf("dropped %d events with default ring capacity", w.DroppedEvents())
	}
	x := tracex.Build(l)
	opSpans := x.OpSpans()
	if len(opSpans) != procs*ops {
		t.Fatalf("reconstructed %d op spans, want %d", len(opSpans), procs*ops)
	}
	for _, sp := range opSpans {
		if sp.Open {
			t.Fatalf("op span for slot %d never saw its response", sp.Slot)
		}
	}
	if len(x.SliceSpans()) < procs*ops {
		t.Fatalf("reconstructed %d slice spans, want >= %d", len(x.SliceSpans()), procs*ops)
	}
	// Uncontended-CAS runs exist, but 3 procs × 50 increments on one word
	// under strict priority handoff reliably fail at least one CAS; if
	// this ever flakes the workload is wrong, not the recorder.
	var fails uint64
	for _, p := range ps {
		fails += p.Counts.CASFail
	}
	if fails > 0 && len(x.CASFailEdges()) == 0 {
		t.Fatalf("%d CAS failures counted but no casfail edges in the drained trace", fails)
	}
}

// TestObsRecorderPastCapacity: addresses index the line-padded backing
// array, so an allocation can sit past Capacity(); the recorder's
// last-writer table must cover it for Store and both CAS outcomes.
func TestObsRecorderPastCapacity(t *testing.T) {
	m := NewMem(4)
	m.MustAlloc("a", 1)
	b := m.MustAlloc("b", 1)
	if int(b) < m.Capacity() {
		t.Fatalf("b = %d, want an address past Capacity() = %d", b, m.Capacity())
	}
	w := NewFreeWorld(m)
	w.EnableObs(ObsConfig{Recorder: true})
	p := w.NewProc(0, 0, 0)
	p.Begin()
	p.Store(b, 1)
	if !p.CAS(b, 1, 2) || p.CAS(b, 1, 3) {
		t.Fatal("CAS outcomes wrong on a past-capacity address")
	}
	p.End()
	if m.Peek(b) != 2 {
		t.Fatalf("word b = %d, want 2", m.Peek(b))
	}
}

// TestObsStatsDisabledNil: without EnableObs, Stats is nil and DrainTrace
// returns nil rather than an empty log.
func TestObsStatsDisabledNil(t *testing.T) {
	m := NewMem(64)
	w := NewWorld(m, 1)
	p := w.NewProc(0, 0, 0)
	if p.Stats() != nil {
		t.Fatal("Stats() non-nil without EnableObs")
	}
	if w.DrainTrace() != nil {
		t.Fatal("DrainTrace() non-nil without EnableObs")
	}
}

// TestCAS2GuardRetryCount verifies the guard-spin counter: with the guard
// held, cas2 must report the spins it waited.
func TestCAS2GuardRetryCount(t *testing.T) {
	m := NewMem(4)
	a := m.MustAlloc("a", 1)
	b := m.MustAlloc("b", 1)
	m.guard.Store(1)
	done := make(chan struct{})
	go func() {
		time.Sleep(2 * time.Millisecond)
		m.guard.Store(0)
		close(done)
	}()
	ok, retries := m.cas2(a, b, 0, 0, 1, 2)
	<-done
	if !ok {
		t.Fatal("cas2 failed with matching olds")
	}
	if retries == 0 {
		t.Fatal("cas2 reported zero guard retries despite a held guard")
	}
}

// TestObsPreemptionDepth drives a strict-priority preemption chain and
// checks the preemption counters, the max-depth watermark, and that the
// drained trace carries the preempt events.
func TestObsPreemptionDepth(t *testing.T) {
	m := NewMem(64)
	a := m.MustAlloc("w", 1)
	w := NewWorld(m, 1)
	w.EnableObs(ObsConfig{Metrics: true, Recorder: true})
	low := w.NewProc(0, 0, 0)
	high := w.NewProc(1, 0, 5)

	lowRunning := make(chan struct{})
	release := make(chan struct{})
	var wg sync.WaitGroup
	wg.Add(2)
	go func() {
		defer wg.Done()
		low.Begin()
		close(lowRunning)
		// Spin at preemption points until the high-priority proc has
		// arrived and (necessarily) preempted us at one of them.
		<-release
		for i := 0; i < 1000; i++ {
			low.Store(a, uint64(i))
		}
		low.End()
	}()
	go func() {
		defer wg.Done()
		<-lowRunning
		high.Begin() // queues as an outranking waiter
		high.Store(a, 9999)
		high.End()
	}()
	// Let the high proc enqueue, then release the low proc into its
	// preemption points.
	go func() {
		<-lowRunning
		for !low.shard.wanted.Load() {
			time.Sleep(50 * time.Microsecond)
		}
		close(release)
	}()
	wg.Wait()

	s := low.Stats()
	if s.Preemptions == 0 {
		t.Fatal("low-priority proc was never preempted")
	}
	if s.MaxPreemptDepth == 0 {
		t.Fatal("MaxPreemptDepth stayed 0 across a preemption")
	}
	l := w.DrainTrace()
	found := false
	for _, ev := range l.Events() {
		if ev.Kind == trace.KindPreempt && ev.Proc == 0 {
			found = true
			break
		}
	}
	if !found {
		t.Fatal("no preempt event for the preempted proc in the drained trace")
	}
}
