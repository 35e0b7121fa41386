package native

import (
	"fmt"
	"runtime"
	"sync"
	"sync/atomic"
	"time"

	"repro/internal/metrics"
	"repro/internal/shmem"
	"repro/internal/trace"
)

// MaxSlots bounds the helping bookkeeping arrays. It is far above anything
// the stress suites spawn; NewProc rejects slots beyond it, so run drivers
// check their process count against it before placing any process.
const MaxSlots = 1024

// World is one native execution: a memory, a set of processes, and — for
// the paper's families — the shards that impose priority-uniprocessor
// scheduling on them.
//
// Three configurations map to the repo's three object families:
//
//   - NewWorld(mem, 1): one shard. Every process shares it, so exactly one
//     runs at a time and preemption follows strict priority — the machine
//     model of the uniprocessor algorithms (Figures 2–5).
//   - NewWorld(mem, P): P shards, true parallelism across them, priority
//     discipline within each — the multiprocessor model of Figures 6–7,
//     where mypr is the shard index.
//   - NewFreeWorld(mem): no shards. Goroutines run wherever the Go
//     scheduler puts them, which is the anything-goes model the baselines
//     (lock-free and lock-based) are designed for.
//
// A World is not reusable across runs; build a fresh one per experiment.
type World struct {
	mem    *Mem
	shards []*shard
	// helpReceived[p] counts help invocations received by slot p; written
	// with atomics because helpers on different shards run concurrently.
	helpReceived [MaxSlots]atomic.Uint64
	// obs is the observability context (nil unless EnableObs was called;
	// see obs.go). Procs created while it is nil collect nothing and pay
	// nothing beyond a nil check.
	obs *obsState
}

// NewWorld returns a world whose processes are scheduled on `shards`
// priority-disciplined shards.
func NewWorld(mem *Mem, shards int) *World {
	if shards <= 0 {
		panic(fmt.Sprintf("native: shard count %d must be positive (use NewFreeWorld for undisciplined runs)", shards))
	}
	w := &World{mem: mem, shards: make([]*shard, shards)}
	for i := range w.shards {
		w.shards[i] = &shard{}
	}
	return w
}

// NewFreeWorld returns a world with no scheduling discipline: processes are
// plain goroutines. This is the right model for the baselines, which do not
// assume priority scheduling (the lock-based baseline in fact livelocks
// under it — the paper's motivating failure).
func NewFreeWorld(mem *Mem) *World { return &World{mem: mem} }

// Mem returns the world's memory.
func (w *World) Mem() *Mem { return w.mem }

// Processors returns the number of shards, or GOMAXPROCS for a free world —
// the value that bounds the helping-ring width P.
func (w *World) Processors() int {
	if len(w.shards) > 0 {
		return len(w.shards)
	}
	return runtime.GOMAXPROCS(0)
}

// Shards returns the number of priority-disciplined shards: 0 for a free
// world.
func (w *World) Shards() int { return len(w.shards) }

// HelpReceived returns the number of help invocations slot p received.
func (w *World) HelpReceived(p int) uint64 {
	if p < 0 || p >= MaxSlots {
		return 0
	}
	return w.helpReceived[p].Load()
}

// shard serializes a set of processes onto one virtual processor under
// strict priority preemption:
//
//   - at most one process runs at a time;
//   - a runnable process with strictly higher priority than the runner
//     preempts it at the runner's next preemption point (every memory
//     operation outside a NoPreempt section);
//   - when the runner finishes or is preempted, the highest-priority
//     runnable process runs next, with the preempted resumed in LIFO order
//     among equals.
//
// The preempted stack is ordered by priority (each preemption is by a
// strictly higher priority), so its top is always the highest-priority
// preempted process; pickNextLocked compares it against the best waiting
// arrival.
//
// The layout keeps wanted alone on the second of two cache lines, and the
// struct two lines long, so the flag every runner polls shares no line with
// this shard's mutex or with a neighbouring allocation (pinned by
// TestShardLayout).
type shard struct {
	mu        sync.Mutex
	running   *Proc
	waiting   []*Proc
	preempted []*Proc
	// wanted is the runner's cheap preemption-pending flag: set exactly
	// when some waiter outranks the current runner. Runners poll it with
	// one atomic load per memory operation.
	wanted atomic.Bool
	_      [cacheLine - 4]byte // 4: the size of atomic.Bool
}

// cacheLine is the cache-line size the shard layout pads to.
const cacheLine = 64

func (s *shard) bestWaitingLocked() int {
	best := -1
	for i, q := range s.waiting {
		if best < 0 || q.prio > s.waiting[best].prio {
			best = i
		}
	}
	return best
}

func (s *shard) refreshWantedLocked() {
	want := false
	if s.running != nil {
		for _, q := range s.waiting {
			if q.prio > s.running.prio {
				want = true
				break
			}
		}
	}
	s.wanted.Store(want)
}

// pickNextLocked removes and returns the highest-priority runnable process:
// the top of the preempted stack or the best waiting arrival, whichever
// outranks the other (the preempted process wins ties — it was there first).
func (s *shard) pickNextLocked() *Proc {
	var next *Proc
	fromStack := false
	if n := len(s.preempted); n > 0 {
		next = s.preempted[n-1]
		fromStack = true
	}
	if best := s.bestWaitingLocked(); best >= 0 && (next == nil || s.waiting[best].prio > next.prio) {
		q := s.waiting[best]
		s.waiting = append(s.waiting[:best], s.waiting[best+1:]...)
		return q
	}
	if fromStack {
		s.preempted = s.preempted[:len(s.preempted)-1]
	}
	return next
}

// Proc is one native process: a goroutine's execution context, implementing
// shmem.Ctx. Create one per goroutine with World.NewProc and bracket each
// abstract operation with Begin/End so the shard discipline sees operation
// boundaries. A Proc must only be used from the goroutine it was created
// for (its op counters are intentionally unsynchronized and are read after
// the goroutine joins).
type Proc struct {
	// words is the world memory's backing array and wanted its shard's
	// preemption flag (nil in a free world): the two things every memory
	// operation touches, held directly so a step is one atomic access,
	// one counter increment and one flag load.
	words  []uint64
	wanted *atomic.Bool
	w      *World
	shard  *shard
	slot   int
	cpu    int
	prio   shmem.Priority
	// gate blocks the process while it is not scheduled; buffered so the
	// scheduler-side send never blocks.
	gate      chan struct{}
	noPreempt int
	// Counts tallies this process's memory operations, in the same shape
	// the simulator reports (metrics.OpCounts).
	Counts metrics.OpCounts
	// HelpGiven counts help invocations this process performed.
	HelpGiven uint64

	// Observability plumbing (all nil/zero unless the world's EnableObs
	// ran before NewProc; see obs.go). obs is the shared context, stats
	// the padded atomic counter block, ring the flight-recorder ring, lw
	// the CAS-failure attribution table, opStart the Begin timestamp of
	// the in-flight operation (ns since the obs epoch).
	obs     *obsState
	stats   *ProcStats
	ring    *evRing
	lw      []atomic.Int32
	opStart int64
}

// NewProc creates the execution context for one process goroutine. cpu
// selects the shard (ignored in a free world); prio is the process's fixed
// priority. Slots must be unique per World when the helping algorithms are
// in play — they index announce arrays, exactly as on the simulator.
func (w *World) NewProc(slot, cpu int, prio shmem.Priority) *Proc {
	if slot < 0 || slot >= MaxSlots {
		panic(fmt.Sprintf("native: slot %d out of range [0,%d)", slot, MaxSlots))
	}
	p := &Proc{words: w.mem.words, w: w, slot: slot, cpu: cpu, prio: prio, gate: make(chan struct{}, 1)}
	if w.obs != nil {
		p.obs = w.obs
		if w.obs.cfg.Metrics {
			p.stats = &ProcStats{}
		}
		if w.obs.cfg.Recorder {
			p.ring = &evRing{buf: make([]recEvent, w.obs.cfg.RingCap)}
			p.lw = w.obs.lastWriter
		}
		// NewProc is setup-time API (called before goroutines spawn), so
		// the registration append needs no lock.
		w.obs.procs = append(w.obs.procs, p)
	}
	if len(w.shards) > 0 {
		if cpu < 0 || cpu >= len(w.shards) {
			panic(fmt.Sprintf("native: cpu %d out of range [0,%d)", cpu, len(w.shards)))
		}
		p.shard = w.shards[cpu]
		p.wanted = &p.shard.wanted
	}
	return p
}

// Begin enters the shard for one abstract operation, blocking until this
// process is the shard's runner (immediately if it outranks the current
// runner — the preemption itself happens at the runner's next preemption
// point). In a free world it is a no-op.
func (p *Proc) Begin() {
	if p.stats != nil {
		p.opStart = int64(time.Since(p.obs.epoch))
	}
	if p.ring != nil {
		p.rec(evInvoke, 0, 0)
	}
	s := p.shard
	if s == nil {
		return
	}
	s.mu.Lock()
	if s.running == nil {
		s.running = p
		s.mu.Unlock()
		p.obsDispatch()
		return
	}
	s.waiting = append(s.waiting, p)
	if p.prio > s.running.prio {
		s.wanted.Store(true)
	}
	s.mu.Unlock()
	<-p.gate
	p.obsDispatch()
}

// obsDispatch records that this process just became its shard's runner.
func (p *Proc) obsDispatch() {
	if p.stats != nil {
		p.stats.Dispatches.Add(1)
	}
	if p.ring != nil {
		p.rec(evDispatch, 0, 0)
	}
}

// End leaves the shard after one abstract operation and hands the shard to
// the highest-priority runnable process.
func (p *Proc) End() {
	// Record before the hand-off below: the next runner records its
	// dispatch only after receiving the gate (or after observing this
	// unlock), so the response/complete events order before it.
	if p.stats != nil {
		p.stats.Ops.Add(1)
		p.stats.hist.observe(int64(time.Since(p.obs.epoch)) - p.opStart)
	}
	if p.ring != nil {
		p.rec(evResponse, 0, 0)
		if p.shard != nil {
			p.rec(evComplete, 0, 0)
		}
	}
	s := p.shard
	if s == nil {
		return
	}
	s.mu.Lock()
	if s.running != p {
		s.mu.Unlock()
		panic("native: End called by a process that is not the shard's runner (missing Begin, or Proc shared across goroutines)")
	}
	next := s.pickNextLocked()
	s.running = next
	s.refreshWantedLocked()
	s.mu.Unlock()
	if next != nil {
		next.gate <- struct{}{}
	}
}

// point is the preemption point at every memory operation: if a waiter
// outranks this process, hand the shard over and block until resumed. The
// fast path is one atomic load of the shard's wanted flag, small enough to
// inline into every memory operation (ci.sh checks that it stays so);
// everything else is in preempt.
func (p *Proc) point() {
	if p.wanted != nil && p.wanted.Load() {
		p.preempt()
	}
}

// preempt is point's slow path, taken only while the wanted flag is set:
// unless preemption is masked, hand the shard to the outranking waiter and
// block until resumed. It is kept out of line so point's inline cost is
// one call, however this path grows.
//
//go:noinline
func (p *Proc) preempt() {
	if p.noPreempt > 0 {
		return
	}
	s := p.shard
	s.mu.Lock()
	best := s.bestWaitingLocked()
	if best < 0 || s.waiting[best].prio <= p.prio {
		// Stale flag (the outranking waiter was already scheduled).
		s.refreshWantedLocked()
		s.mu.Unlock()
		return
	}
	q := s.waiting[best]
	s.waiting = append(s.waiting[:best], s.waiting[best+1:]...)
	s.preempted = append(s.preempted, p)
	depth := len(s.preempted)
	s.running = q
	s.refreshWantedLocked()
	s.mu.Unlock()
	if p.stats != nil {
		p.stats.Preemptions.Add(1)
		p.stats.maxDepth(uint64(depth))
	}
	if p.ring != nil {
		// Before the gate send: q records its dispatch only after
		// receiving it, keeping preempt < dispatch in sequence order.
		p.rec(evPreempt, 0, 0)
	}
	q.gate <- struct{}{}
	<-p.gate
	p.obsDispatch()
}

// Load reads word a.
func (p *Proc) Load(a shmem.Addr) uint64 {
	v := atomic.LoadUint64(&p.words[a])
	p.Counts.Loads++
	p.point()
	return v
}

// Store writes word a.
func (p *Proc) Store(a shmem.Addr, v uint64) {
	atomic.StoreUint64(&p.words[a], v)
	p.Counts.Stores++
	if p.lw != nil {
		p.lw[a].Store(int32(p.slot) + 1)
	}
	p.point()
}

// CAS performs a hardware compare-and-swap on word a.
func (p *Proc) CAS(a shmem.Addr, old, val uint64) bool {
	ok := atomic.CompareAndSwapUint64(&p.words[a], old, val)
	p.Counts.CAS++
	if !ok {
		p.Counts.CASFail++
	}
	if p.lw != nil {
		if ok {
			p.lw[a].Store(int32(p.slot) + 1)
		} else {
			p.rec(evCASFail, int64(p.lw[a].Load())-1, int64(a))
		}
	}
	p.point()
	return ok
}

// CAS2 performs the software-emulated double-word compare-and-swap (see
// Mem.cas2 for the emulation and its honesty clause).
func (p *Proc) CAS2(a1, a2 shmem.Addr, old1, old2, new1, new2 uint64) bool {
	ok, retries := p.w.mem.cas2(a1, a2, old1, old2, new1, new2)
	p.Counts.CAS2++
	if !ok {
		p.Counts.CAS2Fail++
	}
	if retries > 0 && p.stats != nil {
		p.stats.CAS2GuardRetries.Add(uint64(retries))
	}
	if p.lw != nil {
		if ok {
			p.lw[a1].Store(int32(p.slot) + 1)
			p.lw[a2].Store(int32(p.slot) + 1)
		} else {
			// Attribute the failure to the control word's last writer.
			p.rec(evCASFail, int64(p.lw[a1].Load())-1, int64(a1))
		}
	}
	p.point()
	return ok
}

// CCASNative panics: real hardware has no CCAS, which is the paper's very
// premise for the Figure 8 software constructions. Configure prim.Tagged or
// prim.Delayed instead (registry.Normalize does so by default off-simulator).
func (p *Proc) CCASNative(v shmem.Addr, ver uint64, x shmem.Addr, old, val uint64) bool {
	panic("native: CCAS is not a hardware primitive (the Figure 8 premise); use the software constructions in internal/prim (Tagged or Delayed)")
}

// GuardedCAS is the Figure 8 software-CCAS window (shmem.Ctx): with shard
// preemption masked, Load(v) and, iff it equals ver, CAS(x, old, val); the
// deferred handoff, if a waiter outranks this process, happens right after
// the window closes. No closure, so the hot path does not allocate.
func (p *Proc) GuardedCAS(v shmem.Addr, ver uint64, x shmem.Addr, old, val uint64) bool {
	p.noPreempt++
	ok := p.Load(v) == ver && p.CAS(x, old, val)
	p.noPreempt--
	p.point()
	return ok
}

// NoPreempt runs f with shard preemption masked, the native realization of
// the paper's "executed without preemption" sections. Processes on other
// shards still interleave with f's memory operations.
func (p *Proc) NoPreempt(f func()) {
	p.noPreempt++
	defer func() {
		p.noPreempt--
		p.point()
	}()
	f()
}

// Yield is an explicit preemption point. In a free world it defers to the
// Go scheduler, which keeps spin loops polite.
func (p *Proc) Yield() {
	if p.shard == nil {
		runtime.Gosched()
		return
	}
	p.point()
}

// Delay is a plain preemption point: real hardware gives no virtual-time
// guarantee, which is the documented caveat on the Delayed CCAS
// construction (its correctness argument needs the simulator's clock).
func (p *Proc) Delay(d int64) {
	if d < 0 {
		panic(fmt.Sprintf("native: negative delay %d", d))
	}
	p.Yield()
}

// Slot returns the algorithm-level process identifier.
func (p *Proc) Slot() int { return p.slot }

// CPU returns the shard index (mypr in the paper); 0 in a free world.
func (p *Proc) CPU() int { return p.cpu }

// Prio returns this process's priority.
func (p *Proc) Prio() shmem.Priority { return p.prio }

// Note drops the annotation: the native backend has no deterministic trace
// to attach structured events to.
func (p *Proc) Note(key string, args ...trace.Field) {}

// Traced reports false: Note always drops, so algorithms skip building its
// arguments entirely.
func (p *Proc) Traced() bool { return false }

// NoteHelp records one help invocation on the operation announced under
// slot pid (bookkeeping only, as on the simulator).
func (p *Proc) NoteHelp(pid int) {
	if pid == p.slot {
		return
	}
	p.HelpGiven++
	if pid >= 0 && pid < MaxSlots {
		p.w.helpReceived[pid].Add(1)
	}
	if p.ring != nil {
		p.rec(evHelp, int64(pid), 0)
	}
}

// SyncCostUnits returns 1: the native backend has no cost model, and the
// only consumer (the Valois baseline's reference-count emulation) uses it
// to size a delay, which is a plain yield here anyway.
func (p *Proc) SyncCostUnits() int64 { return 1 }

// Proc is the native backend's execution context.
var _ shmem.Ctx = (*Proc)(nil)
