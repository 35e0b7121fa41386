package sched

import (
	"fmt"
	"math/rand"

	"repro/internal/shmem"
	"repro/internal/trace"
)

// Env is the execution context handed to a simulated process's body. All
// shared-memory access and all timing-relevant actions go through it; that
// is what makes every memory operation a potential preemption point and what
// charges virtual time.
//
// An Env is only valid inside the body of the process it was created for.
//
// Env is the simulator's implementation of shmem.Ctx, the backend seam the
// algorithms are written against; internal/native provides the other.
type Env struct {
	sim *Sim
	p   *Proc
	// cpu is the process's processor state, cached at Spawn so conclude and
	// Now avoid the indexing round trip.
	cpu *cpuState

	// pending is the virtual-time cost accumulated since the last yield.
	pending int64
	// yield hands control back to whoever last resumed this process — Run
	// or a hosting process (see Env.handOff) — with iter.Pull's direct
	// goroutine switch. It is set while a job body runs and returns false
	// when the coroutine is being unwound.
	yield func(yieldMsg) bool
	// noPreempt > 0 suppresses preemption on this processor (Figure 8(b)
	// "executed without preemption"); preemption points still yield so
	// other processors can interleave, but this processor's scheduler
	// sticks to the current process.
	noPreempt int
	// sliceOps counts operations since the last preemption point; the
	// slice ends when it reaches limit (see coarseSliceOps).
	sliceOps int
	limit    int
	// rng is lazily created per process for workload decisions inside
	// bodies; deterministic from the run seed and process id.
	rng *rand.Rand
}

// point charges cost units and yields if this operation is a preemption
// point under the configured granularity: always for a synchronizing
// operation, otherwise once the slice holds limit operations.
func (e *Env) point(cost int64, sync bool) {
	e.pending += cost
	e.sliceOps++
	if sync || e.sliceOps >= e.limit {
		e.sliceOps = 0
		e.yieldNow()
	}
}

// coarseSliceOps is the maximum number of non-synchronizing memory
// operations between preemption points under Coarse granularity. Coarse
// granularity still bounds slice length: long scans made only of plain
// loads must remain interruptible and interleavable across processors,
// otherwise whole list traversals would execute atomically and contention
// would vanish.
//
// Env.limit holds the bound a process's slices run to, set once at Spawn
// from the configured granularity: 1 under Fine, where every operation is
// a preemption point, and coarseSliceOps under Coarse.
const coarseSliceOps = 32

// yieldNow ends this process's slice at a preemption point and blocks until
// the process is dispatched again. Inside Run the process concludes the
// slice and makes the next scheduling decision itself (handOff); a process
// resumed outside Run (a hand-driven test) hands the unconcluded slice back
// to its resumer instead. The pending cost is reset first: from then until
// the process runs again, the deciding code owns all simulator state
// (including this Env's fields).
func (e *Env) yieldNow() {
	s := e.sim
	if s.aborting {
		panic(errAborted)
	}
	msg := yieldMsg{kind: yieldPoint, cost: e.pending}
	e.pending = 0
	if !s.ran {
		e.yieldUp(msg)
		return
	}
	s.conclude(e.p, msg)
	e.handOff()
}

// handOff hands the processor straight to the next process: it makes the
// scheduling decision Run would make and acts on it from this coroutine.
//
//   - The decision is this process: it keeps running, with no switch.
//   - The decision is a suspended process: this process resumes it directly
//     and hosts it until control comes back. A hosted process that finishes
//     or panics returns here to be concluded, and the decision repeats.
//   - The decision is a hosting process (necessarily an ancestor on the
//     hosting chain) or the end of the run: a pass addressed to it travels
//     up the chain, each host forwarding what is not addressed to it.
//
// Every decision is the one Run's own loop would take at the same point,
// in the same order and at the same clocks, so runs are identical
// whichever goroutine makes them.
func (e *Env) handOff() {
	s, p := e.sim, e.p
	for {
		q := s.step()
		if q == p {
			return
		}
		if q == nil || q.hosting {
			e.yieldUp(yieldMsg{kind: yieldPass, to: q})
			return
		}
		p.hosting = true
		msg := s.resume(q)
		p.hosting = false
		if msg.kind == yieldPass {
			if msg.to != p {
				e.yieldUp(msg)
			}
			return
		}
		s.conclude(q, msg)
	}
}

// yieldUp yields msg to this process's resumer. When the yield returns, the
// process has been dispatched again, unless the run is shutting down.
func (e *Env) yieldUp(msg yieldMsg) {
	if !e.yield(msg) || e.sim.aborting {
		panic(errAborted)
	}
}

// Yield is an explicit preemption point with no memory operation. In Coarse
// granularity it is the only way (besides synchronizing operations) for a
// long computation to admit preemption.
func (e *Env) Yield() { e.point(0, true) }

// Delay charges d units of virtual time, as the paper's delay(Δ) statement
// (Section 3.3, Figure 8(c)). It is a preemption point.
func (e *Env) Delay(d int64) {
	if d < 0 {
		panic(fmt.Sprintf("sched: negative delay %d", d))
	}
	e.point(d, true)
}

// NoPreempt runs f with preemption disabled on this processor, the mechanism
// the paper assumes for CCAS lines 3-4 ("either disabling interrupts or
// having the operating system roll back"). Other processors still interleave
// with f's memory operations; only local preemption is masked. Nesting is
// allowed.
func (e *Env) NoPreempt(f func()) {
	e.noPreempt++
	defer func() { e.noPreempt-- }()
	f()
}

// GuardedCAS is the Figure 8 software-CCAS window (shmem.Ctx): with local
// preemption masked, Load(v) and, iff it equals ver, CAS(x, old, val). It
// charges the same time and hits the same preemption points as running
// those two operations under NoPreempt.
func (e *Env) GuardedCAS(v shmem.Addr, ver uint64, x shmem.Addr, old, val uint64) bool {
	e.noPreempt++
	defer func() { e.noPreempt-- }()
	if e.Load(v) != ver {
		return false
	}
	return e.CAS(x, old, val)
}

// Load reads word a. One time unit; a preemption point in Fine granularity.
func (e *Env) Load(a shmem.Addr) uint64 {
	v := e.sim.mem.Load(a)
	e.point(1, false)
	return v
}

// Store writes word a. One time unit; a preemption point in Fine
// granularity. (The paper's uniprocessor algorithms use plain writes for
// announce and status variables; their correctness under preemption comes
// from the priority model, which the scheduler enforces.)
func (e *Env) Store(a shmem.Addr, v uint64) {
	e.sim.mem.Store(a, v)
	e.point(1, false)
}

// CAS performs an atomic compare-and-swap. One time unit; always a
// preemption point.
func (e *Env) CAS(a shmem.Addr, old, val uint64) bool {
	ok := e.sim.mem.CAS(a, old, val)
	e.point(e.sim.cfg.SyncCost, true)
	return ok
}

// CAS2 performs an atomic two-word compare-and-swap (used only by the
// Greenwald–Cheriton baseline; the paper's own algorithms need just CAS and
// CCAS). One time unit; always a preemption point.
func (e *Env) CAS2(a1, a2 shmem.Addr, old1, old2, new1, new2 uint64) bool {
	ok := e.sim.mem.CAS2(a1, a2, old1, old2, new1, new2)
	e.point(e.sim.cfg.SyncCost, true)
	return ok
}

// CCASNative performs the paper's CCAS (Figure 8(a)) as a single atomic
// machine step. The software implementations built from CAS live in
// internal/prim. One time unit; always a preemption point.
func (e *Env) CCASNative(v shmem.Addr, ver uint64, x shmem.Addr, old, val uint64) bool {
	ok := e.sim.mem.CCAS(v, ver, x, old, val)
	e.point(e.sim.cfg.SyncCost, true)
	return ok
}

// Me returns the sched-level process id of this process.
func (e *Env) Me() int { return e.p.id }

// Slot returns the algorithm-level process identifier (the p of Status[p],
// Par[p], Rv[p], ...).
func (e *Env) Slot() int { return e.p.spec.Slot }

// CPU returns the processor this process runs on (mypr in the paper).
func (e *Env) CPU() int { return e.p.spec.CPU }

// Prio returns this process's priority.
func (e *Env) Prio() Priority { return e.p.spec.Prio }

// Now returns the current virtual time on this process's processor,
// including cost accumulated since the last yield.
func (e *Env) Now() int64 { return e.cpu.clock + e.pending }

// Rand returns a deterministic per-process random source for workload
// decisions made inside process bodies: ProcRand(Config.Seed, id).
func (e *Env) Rand() *rand.Rand {
	if e.rng == nil {
		e.rng = ProcRand(e.sim.cfg.Seed, e.p.id)
	}
	return e.rng
}

// ProcRand returns a fresh copy of the random stream Env.Rand hands the
// process with spawn index id in a run seeded seed, for drivers that draw
// a job's decisions outside its body.
func ProcRand(seed int64, id int) *rand.Rand {
	return rand.New(rand.NewSource(seed*1_000_003 + int64(id)))
}

// Note records a structured algorithm annotation in the run trace (no-op
// when tracing is disabled). The key names the semantic event ("invoke",
// "announce", "splice", "response", ...) and the fields carry its typed
// arguments; the span layer (internal/tracex) reconstructs operation spans
// and causality edges from these. Like all trace emission it charges zero
// virtual time, so instrumented schedules are identical to uninstrumented
// ones.
func (e *Env) Note(key string, args ...trace.Field) {
	if e.sim.log == nil {
		return
	}
	e.sim.emitNote(e.p.spec.CPU, e.p, key, args)
}

// Traced reports whether this run records a trace. Algorithms use it to
// skip building Note's variadic field arguments on untraced runs: through
// the shmem.Ctx interface those arguments always escape to the heap, and on
// sweep-sized runs they dominated the per-schedule allocation profile.
func (e *Env) Traced() bool { return e.sim.log != nil }

// NoteHelp records that this process performed one help invocation on the
// operation announced under slot pid. It is observability bookkeeping only —
// no simulated time is charged and no schedule is perturbed — so the helping
// engines call it unconditionally. Help given to the caller's own slot is
// ignored (executing your own operation is not help). NoteHelp is also the
// canonical emission point for the trace's help causality edges: it emits
// the structured "help p=<pid>" annotation that internal/tracex turns into a
// helper-span → helpee-span edge.
func (e *Env) NoteHelp(pid int) {
	if pid == e.p.spec.Slot {
		return
	}
	e.p.helpGiven++
	e.sim.helpReceived[pid]++
	e.Note("help", trace.I("p", int64(pid)))
}

// RecordOp records one completed operation's response time (virtual units)
// for the run report's per-operation histograms. Like NoteHelp it charges
// no simulated time. Typical use:
//
//	start := e.Now()
//	obj.Insert(e, key, val)
//	e.RecordOp(e.Now() - start)
func (e *Env) RecordOp(elapsed int64) {
	e.p.opSamples = append(e.p.opSamples, elapsed)
}

// SyncCostUnits returns the configured virtual cost of a synchronizing
// operation, for cost models that emulate RMW-heavy algorithms (the Valois
// baseline's reference counting).
func (e *Env) SyncCostUnits() int64 { return e.sim.cfg.SyncCost }

// Sim returns the simulation this process belongs to.
func (e *Env) Sim() *Sim { return e.sim }

// Env is the simulator backend's execution context.
var _ shmem.Ctx = (*Env)(nil)
