// Package shmem provides the simulated sequentially-consistent shared memory
// that all algorithms in this repository operate on.
//
// The memory is a flat array of 64-bit words addressed by Addr. Every shared
// variable of the paper's pseudocode — the Status/Save arrays of the
// uniprocessor MWCAS (Figure 3), the announce variables, the version counter
// V, and every linked-list node field — is a word in this array. Node
// "pointers" are arena indices packed into words, so a CAS on a
// (pointer, bit) pair or on a (val, cnt, valid, pid) record is exact.
//
// The memory itself is passive and completely unsynchronized: the scheduler
// in internal/sched guarantees that at most one simulated process executes at
// any instant, which models a sequentially-consistent machine. Atomicity of
// CAS, CAS2 and the native CCAS comes from the fact that each executes as a
// single simulator step.
//
// Observers can watch every successful write. The linearizability checkers in
// internal/check are implemented entirely as observers, so the algorithms
// under test carry no instrumentation.
package shmem

import (
	"errors"
	"fmt"
	"sort"

	"repro/internal/metrics"
)

// Addr is the index of a word in a Mem. The zero Addr is valid but reserved
// by convention (segment allocation starts at word 1) so that an
// uninitialized Addr is easy to spot in traces.
type Addr int

// None is a sentinel for "no address".
const None Addr = -1

// OpKind identifies the kind of memory operation that produced a write
// event.
type OpKind int

// Write-event kinds. Loads are not reported to observers; checkers that need
// read visibility hook the algorithms' linearization writes instead.
const (
	OpStore OpKind = iota + 1
	OpCAS
	OpCAS2
	OpCCAS
)

// String returns the mnemonic for the operation kind.
func (k OpKind) String() string {
	switch k {
	case OpStore:
		return "store"
	case OpCAS:
		return "cas"
	case OpCAS2:
		return "cas2"
	case OpCCAS:
		return "ccas"
	default:
		return fmt.Sprintf("opkind(%d)", int(k))
	}
}

// WriteEvent describes one successful modification of a word.
type WriteEvent struct {
	// Addr is the word that changed.
	Addr Addr
	// Old and New are the word's values before and after the write.
	Old, New uint64
	// Kind reports which primitive performed the write.
	Kind OpKind
	// Proc is the simulated process that performed the write, or -1 when
	// the write happened outside any process (setup code).
	Proc int
	// Step is the global memory-operation sequence number at the time of
	// the write. It totally orders all memory operations of a run.
	Step uint64
}

// FailEvent describes one failed synchronization attempt (CAS, CAS2 or
// CCAS whose comparison did not match) together with the attribution of the
// conflict: the process that performed the last successful write of the
// mismatching word. The trace layer turns these into failed-step →
// winning-writer causality edges.
type FailEvent struct {
	// Addr is the word whose comparison failed (for CAS2/CCAS, the first
	// mismatching word in comparison order).
	Addr Addr
	// Kind reports which primitive failed.
	Kind OpKind
	// Proc is the process whose attempt failed, or -1 outside any process.
	Proc int
	// Step is the global memory-operation sequence number of the failed
	// attempt.
	Step uint64
	// Winner is the process that performed the last successful write of
	// Addr, or -1 when the word was last written by setup code (or never).
	Winner int
	// WinnerStep is the global step number of that winning write.
	WinnerStep uint64
}

// Observer receives every successful write performed on a Mem.
type Observer interface {
	OnWrite(ev WriteEvent)
}

// ObserverFunc adapts a function to the Observer interface.
type ObserverFunc func(ev WriteEvent)

// OnWrite implements Observer.
func (f ObserverFunc) OnWrite(ev WriteEvent) { f(ev) }

var _ Observer = (ObserverFunc)(nil)

// ErrOutOfMemory is returned by Alloc when the configured capacity is
// exhausted.
var ErrOutOfMemory = errors.New("shmem: out of memory")

// segment records a named allocation, for debugging and trace symbolization.
type segment struct {
	name  string
	base  Addr
	words int
}

// Mem is a flat simulated shared memory.
//
// Mem is not safe for concurrent use by real goroutines; the scheduler
// serializes all simulated processes, which is the intended usage.
type Mem struct {
	words     []uint64
	next      Addr
	segments  []segment
	observers []Observer
	steps     uint64

	// counts tallies operations per process (indexed by process id,
	// grown at dispatch); setup tallies operations performed outside any
	// simulated process (curProc == -1). cur points at the current
	// process's block (SetCurrentProc), so an access bumps its counter
	// with no lookup. Counting is pure Go-side bookkeeping: it charges no
	// simulated time, so instrumented runs execute the same schedules as
	// uninstrumented ones.
	counts []metrics.OpCounts
	setup  metrics.OpCounts
	cur    *metrics.OpCounts

	// curProc is maintained by the scheduler so write events can be
	// attributed; -1 means "outside any simulated process".
	curProc int

	// dirty is the high-water mark of mutated words: every word at or above
	// this index is still zero. Runs touch a small prefix of the arena-heavy
	// address space, so Reset zeroes m.words[:dirty] instead of the whole
	// array — on sweep-sized memories (2^15-2^16 words) the full memclr was
	// a measurable slice of per-schedule cost.
	dirty Addr

	// failHook, when set, receives every failed synchronization attempt
	// with its winning-writer attribution. lastWriter/lastStep track the
	// most recent successful writer per word; they are allocated only when
	// the hook is installed, so untraced runs pay nothing.
	failHook   func(FailEvent)
	lastWriter []int32
	lastStep   []uint64
}

// New creates a memory with capacity for the given number of words.
func New(capacity int) *Mem {
	m := &Mem{}
	m.Reset(capacity)
	return m
}

// Reset returns the memory to its freshly-constructed state with the given
// capacity, reusing the word array (and its zeroing cost) when the capacity
// is unchanged. Observers, hooks, segments, tallies and the step counter are
// all cleared: a Reset memory is observably identical to New(capacity). It
// exists so schedule sweeps can recycle simulations instead of reallocating
// (and re-zeroing via the allocator) tens of kilobytes per run.
func (m *Mem) Reset(capacity int) {
	if capacity < 1 {
		capacity = 1
	}
	if len(m.words) != capacity {
		m.words = make([]uint64, capacity)
	} else {
		clear(m.words[:m.dirty])
	}
	m.dirty = 0
	m.next = 1        // word 0 is reserved
	clear(m.segments) // drop references held by the spare capacity
	m.segments = m.segments[:0]
	clear(m.observers)
	m.observers = m.observers[:0]
	m.steps = 0
	m.counts = m.counts[:0]
	m.setup = metrics.OpCounts{}
	m.cur = &m.setup
	m.curProc = -1
	m.failHook = nil
	m.lastWriter = nil
	m.lastStep = nil
}

// AddObserver registers an observer for all subsequent writes.
func (m *Mem) AddObserver(o Observer) {
	m.observers = append(m.observers, o)
}

// SetFailHook installs the failed-synchronization hook and enables
// last-writer tracking. The hook runs inside the failing operation's
// simulator step and must not touch simulated memory. Pass nil to disable.
func (m *Mem) SetFailHook(h func(FailEvent)) {
	m.failHook = h
	if h != nil && m.lastWriter == nil {
		m.lastWriter = make([]int32, len(m.words))
		for i := range m.lastWriter {
			m.lastWriter[i] = -1
		}
		m.lastStep = make([]uint64, len(m.words))
	}
}

// fail reports a failed synchronization attempt on word a to the hook,
// attributing the last successful writer of a as the winner.
func (m *Mem) fail(a Addr, kind OpKind) {
	if m.failHook == nil {
		return
	}
	m.failHook(FailEvent{
		Addr: a, Kind: kind, Proc: m.curProc, Step: m.steps,
		Winner: int(m.lastWriter[a]), WinnerStep: m.lastStep[a],
	})
}

// SetCurrentProc records which simulated process is executing and points
// the operation tally at its counter block; the scheduler calls this on
// every dispatch. Pass -1 for setup code.
func (m *Mem) SetCurrentProc(p int) {
	m.curProc = p
	if p < 0 {
		m.cur = &m.setup
		return
	}
	for p >= len(m.counts) {
		m.counts = append(m.counts, metrics.OpCounts{})
	}
	m.cur = &m.counts[p]
}

// CurrentProc returns the process most recently recorded by SetCurrentProc.
func (m *Mem) CurrentProc() int { return m.curProc }

// Steps returns the total number of memory operations executed so far
// (loads included).
func (m *Mem) Steps() uint64 { return m.steps }

// ProcOpCounts returns the operation tally of process p (zero if p never
// executed a memory operation).
func (m *Mem) ProcOpCounts(p int) metrics.OpCounts {
	if p < 0 || p >= len(m.counts) {
		return metrics.OpCounts{}
	}
	return m.counts[p]
}

// SetupOpCounts returns the tally of operations performed outside any
// simulated process (initialization code).
func (m *Mem) SetupOpCounts() metrics.OpCounts { return m.setup }

// TotalOpCounts returns the whole memory's operation tally, setup included.
func (m *Mem) TotalOpCounts() metrics.OpCounts {
	total := m.setup
	for _, c := range m.counts {
		total.Add(c)
	}
	return total
}

// Capacity returns the total number of words in the memory.
func (m *Mem) Capacity() int { return len(m.words) }

// Allocated returns the number of words handed out by Alloc so far.
func (m *Mem) Allocated() int { return int(m.next) }

// Alloc reserves n consecutive words under the given debug name and returns
// the address of the first. Allocation is setup-time only (a bump pointer);
// it never recycles.
func (m *Mem) Alloc(name string, n int) (Addr, error) {
	if n < 0 {
		return None, fmt.Errorf("shmem: negative allocation %q (%d words)", name, n)
	}
	if int(m.next)+n > len(m.words) {
		return None, fmt.Errorf("shmem: alloc %q (%d words): %w", name, n, ErrOutOfMemory)
	}
	base := m.next
	m.next += Addr(n)
	m.segments = append(m.segments, segment{name: name, base: base, words: n})
	return base, nil
}

// AllocRows reserves rows rows of width words as one dense segment: the
// stride is width, so the addresses and names are exactly those of
// Alloc(name, rows*width).
func (m *Mem) AllocRows(name string, rows, width int) (Addr, int, error) {
	if rows < 0 || width < 0 {
		return None, 0, fmt.Errorf("shmem: negative row allocation %q (%d rows of %d words)", name, rows, width)
	}
	base, err := m.Alloc(name, rows*width)
	return base, width, err
}

// MustAlloc is Alloc for setup code that sizes its memory up front; it
// panics on exhaustion, which indicates a configuration bug rather than a
// runtime condition.
func (m *Mem) MustAlloc(name string, n int) Addr {
	a, err := m.Alloc(name, n)
	if err != nil {
		panic(err)
	}
	return a
}

// Name returns a human-readable description of an address, of the form
// "segment+offset", for traces and test failure messages.
func (m *Mem) Name(a Addr) string {
	if a < 0 || int(a) >= len(m.words) {
		return fmt.Sprintf("invalid(%d)", int(a))
	}
	i := sort.Search(len(m.segments), func(i int) bool { return m.segments[i].base > a })
	if i == 0 {
		return fmt.Sprintf("word(%d)", int(a))
	}
	s := m.segments[i-1]
	if int(a-s.base) >= s.words {
		return fmt.Sprintf("word(%d)", int(a))
	}
	if a == s.base {
		return s.name
	}
	return fmt.Sprintf("%s+%d", s.name, int(a-s.base))
}

// rangeError is the panic value of an access outside the memory. It
// formats lazily, so the bounds check stays cheap enough for Load to
// inline into its callers.
type rangeError struct {
	a Addr
	n int
}

func (e rangeError) Error() string {
	return fmt.Sprintf("shmem: address %d out of range [0,%d)", int(e.a), e.n)
}

// check panics unless a addresses a word of the memory. The unsigned
// comparison also catches negative addresses.
func (m *Mem) check(a Addr) {
	if uint(a) >= uint(len(m.words)) {
		panic(rangeError{a, len(m.words)})
	}
}

// notify reports a successful write to the observers. A store of the value
// a word already holds is still a write: checkers may key on it (e.g.
// re-arming Status).
func (m *Mem) notify(a Addr, old, val uint64, kind OpKind) {
	if a >= m.dirty {
		m.dirty = a + 1
	}
	if m.lastWriter != nil {
		m.lastWriter[a] = int32(m.curProc)
		m.lastStep[a] = m.steps
	}
	ev := WriteEvent{Addr: a, Old: old, New: val, Kind: kind, Proc: m.curProc, Step: m.steps}
	for _, o := range m.observers {
		o.OnWrite(ev)
	}
}

// Load returns the value of word a. It counts as one memory step.
func (m *Mem) Load(a Addr) uint64 {
	m.check(a)
	m.steps++
	m.cur.Loads++
	return m.words[a]
}

// Store sets word a to v. It counts as one memory step.
func (m *Mem) Store(a Addr, v uint64) {
	m.check(a)
	m.steps++
	m.cur.Stores++
	old := m.words[a]
	m.words[a] = v
	m.notify(a, old, v, OpStore)
}

// CAS atomically compares word a with old and, if equal, sets it to new.
// It reports whether the swap happened. One memory step either way.
func (m *Mem) CAS(a Addr, old, val uint64) bool {
	m.check(a)
	m.steps++
	t := m.cur
	t.CAS++
	if m.words[a] != old {
		t.CASFail++
		m.fail(a, OpCAS)
		return false
	}
	m.words[a] = val
	m.notify(a, old, val, OpCAS)
	return true
}

// CAS2 is the two-word compare-and-swap used by the Greenwald–Cheriton
// baseline: both words must match their expected values, in which case both
// are updated atomically. One memory step either way.
func (m *Mem) CAS2(a1, a2 Addr, old1, old2, new1, new2 uint64) bool {
	m.check(a1)
	m.check(a2)
	if a1 == a2 {
		panic("shmem: CAS2 on aliased addresses")
	}
	m.steps++
	t := m.cur
	t.CAS2++
	if m.words[a1] != old1 || m.words[a2] != old2 {
		t.CAS2Fail++
		if m.words[a1] != old1 {
			m.fail(a1, OpCAS2)
		} else {
			m.fail(a2, OpCAS2)
		}
		return false
	}
	o1, o2 := m.words[a1], m.words[a2]
	m.words[a1] = new1
	m.words[a2] = new2
	m.notify(a1, o1, new1, OpCAS2)
	m.notify(a2, o2, new2, OpCAS2)
	return true
}

// CCAS is the paper's conditional compare-and-swap (Figure 8(a)) executed
// natively as one atomic step: if *v == ver and *x == old, *x is set to new.
// The version word v is compare-only.
func (m *Mem) CCAS(v Addr, ver uint64, x Addr, old, val uint64) bool {
	m.check(v)
	m.check(x)
	m.steps++
	t := m.cur
	t.CCAS++
	if m.words[v] != ver || m.words[x] != old {
		t.CCASFail++
		if m.words[v] != ver {
			m.fail(v, OpCCAS)
		} else {
			m.fail(x, OpCCAS)
		}
		return false
	}
	o := m.words[x]
	m.words[x] = val
	m.notify(x, o, val, OpCCAS)
	return true
}

// Peek reads a word without counting a step or requiring a process context.
// It is for checkers, tests and trace printers only — never for algorithms.
func (m *Mem) Peek(a Addr) uint64 {
	m.check(a)
	return m.words[a]
}

// Poke writes a word without counting a step and without notifying
// observers. It is for setup code that initializes data structures before a
// run starts.
func (m *Mem) Poke(a Addr, v uint64) {
	m.check(a)
	if a >= m.dirty {
		m.dirty = a + 1
	}
	m.words[a] = v
}
