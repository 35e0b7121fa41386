// Package sched simulates the priority-based preemption model that the
// paper's algorithms require and that Go's own scheduler does not provide.
//
// The model (paper, Section 1):
//
//   - processes are scheduled per processor and never migrate during an
//     object access;
//   - on a given processor, process p may preempt process q only if p has
//     strictly higher priority than q; a preempted process does not run
//     again until everything of higher priority on its processor has
//     completed;
//   - a process's priority does not change during an object access;
//   - memory is sequentially consistent and CAS (and, natively, CCAS/CAS2)
//     is atomic.
//
// Simulated processes are iter.Pull coroutines: a process runs until its next
// preemption point (every shared-memory operation in Fine granularity), then
// makes the next scheduling decision itself and hands the processor straight
// to the chosen process (see Sim.step and Env.handOff). Exactly one simulated
// process executes at any real instant, so simulated shared memory needs no
// locking and every run is deterministic given its seed and job set.
//
// Multiprocessor parallelism is modelled as an interleaving: each simulated
// processor has a virtual clock that advances by the cost of the operations
// it executes, and the scheduler always advances the processor with the
// smallest clock. This yields a fair, deterministic, sequentially-consistent
// interleaving of the processors' operations.
package sched

import (
	"errors"
	"fmt"
	"iter"
	"math/rand"
	"runtime/debug"
	"sync"

	"repro/internal/shmem"
	"repro/internal/trace"
)

// Priority is a process priority; larger values are more urgent. Priorities
// on one processor need not be distinct, but a process can only be preempted
// by a strictly higher priority. The type itself lives in internal/shmem so
// the algorithms (written against shmem.Ctx) can name it without depending
// on the simulator.
type Priority = shmem.Priority

// Granularity selects where preemption points fall.
type Granularity int

const (
	// Fine places a preemption point at every shared-memory operation.
	// This is the faithful model; use it for all correctness testing.
	Fine Granularity = iota + 1
	// Coarse places preemption points only at synchronizing operations
	// (CAS, CAS2, CCAS) and explicit Yields. Plain loads and stores run
	// without yielding, which makes large throughput experiments about
	// two orders of magnitude faster while preserving the helping
	// behaviour (helping is triggered at synchronizing operations).
	Coarse
)

// String returns the granularity name.
func (g Granularity) String() string {
	switch g {
	case Fine:
		return "fine"
	case Coarse:
		return "coarse"
	default:
		return fmt.Sprintf("granularity(%d)", int(g))
	}
}

// Config configures a simulation.
type Config struct {
	// Processors is the number of simulated processors (P in the paper).
	Processors int
	// MemWords is the capacity of the simulated shared memory.
	MemWords int
	// Seed seeds all randomness of the run.
	Seed int64
	// Granularity selects preemption-point density; defaults to Fine.
	Granularity Granularity
	// SyncCost is the virtual-time cost of a synchronizing operation
	// (CAS, CAS2, CCAS); plain loads and stores always cost one unit.
	// The default (0 meaning 1) prices synchronization like an ordinary
	// access; real machines pay a coherence premium, which the stride
	// ablation (A4) explores by raising this.
	SyncCost int64
	// MaxSteps aborts the run when the global count of executed slices
	// exceeds it; 0 means a large default. A triggered watchdog is how
	// livelock (e.g. the spin-lock priority-inversion demo) is detected.
	MaxSteps uint64
	// EnableTrace records scheduling events and algorithm annotations.
	EnableTrace bool
	// Policy is the scheduling discipline; nil means DefaultPolicy (the
	// paper's strict-priority model).
	Policy Policy
}

// DefaultMaxSteps is the watchdog limit used when Config.MaxSteps is zero.
const DefaultMaxSteps = 200_000_000

// ErrWatchdog is returned (wrapped) by Run when the step watchdog fires.
var ErrWatchdog = errors.New("sched: watchdog: step limit exceeded (livelock or runaway workload)")

// errAborted is the sentinel panic value used to unwind aborted coroutines.
var errAborted = errors.New("sched: aborted")

// procState tracks a simulated process through its lifecycle.
type procState int

const (
	stateUnreleased procState = iota + 1
	stateReady
	stateRunning
	stateDone
)

// JobSpec describes one simulated process (one "job" in the workloads).
type JobSpec struct {
	// Name appears in traces; defaults to "p<id>".
	Name string
	// CPU is the processor the job runs on (0-based).
	CPU int
	// Prio is the job's fixed priority.
	Prio Priority
	// Slot is the algorithm-level process identifier (the p in Status[p],
	// Par[p], ...). Several jobs may reuse one slot as long as their
	// executions never overlap; the workload layer is responsible for
	// that. Defaults to the job's own id if negative.
	Slot int
	// At releases the job at the given virtual time on its processor.
	At int64
	// AfterSlices, when >= 0, releases the job after the given number of
	// globally-executed slices instead of at a virtual time. This is the
	// deterministic handle used by adversarial and exhaustive schedules:
	// "release q exactly when the victim has executed k steps".
	AfterSlices int64
	// Cost is an advance estimate of the job's length for cost-aware
	// policies (sjf): the registry drivers pass their op counts. It buys
	// no execution time — the job still runs until its body returns — and
	// the default policy ignores it.
	Cost int64
	// Body is the job's code. It runs on the simulated processor and must
	// perform all shared-memory access through the provided Env.
	Body func(*Env)
}

// Proc is a simulated process.
type Proc struct {
	id    int
	spec  JobSpec
	state procState
	env   *Env

	// next resumes the process's iter.Pull coroutine (see startIfNeeded).
	// The coroutine is a persistent loop (coloop): it parks at the final
	// yield of one job body and picks up the next body on resume, so a
	// pooled Proc reuses one coroutine (and its stack) across every
	// schedule of a sweep. stop unwinds the parked loop (stopCoro).
	next func() (yieldMsg, bool)
	stop func()

	// hosting marks a process blocked inside another process's next: it
	// resumed that process from its own preemption point (Env.handOff) and
	// waits for control to come back up the chain. A hosting process cannot
	// be resumed; a decision for it is passed upward instead.
	hosting   bool
	started   bool
	enqueueNo int   // FIFO tiebreak among equal policy keys
	key       int64 // policy ordering key, computed once at release
	// quiescent marks a slice-triggered release that fired at system
	// quiescence: its AfterSlices threshold lay beyond the work that
	// actually ran, so any larger threshold produces the identical
	// schedule. The equivalence pruner (internal/explore) keys on it.
	quiescent bool

	// Released, Started, Completed are virtual times on the job's CPU.
	Released  int64
	Started   int64
	Completed int64
	// Preemptions counts how many times the process was preempted.
	Preemptions int
	// Slices counts the scheduler slices the process executed;
	// Dispatches counts how many times it was (re)placed on its
	// processor. Both feed the run report (internal/metrics).
	Slices     uint64
	Dispatches int
	// helpGiven counts help invocations this process performed on
	// another process's operation (Env.NoteHelp); opSamples holds the
	// per-operation response times it recorded (Env.RecordOp).
	helpGiven int
	opSamples []int64
	// panicVal and panicStack hold a body's panic for the yieldPanicked
	// message that reports it.
	panicVal   any
	panicStack []byte
}

// ID returns the process identifier (dense, in spawn order).
func (p *Proc) ID() int { return p.id }

// Name returns the job's display name.
func (p *Proc) Name() string { return p.spec.Name }

// Slot returns the algorithm-level process identifier (JobSpec.Slot).
func (p *Proc) Slot() int { return p.spec.Slot }

// HelpGiven returns the number of help invocations this process performed
// on other processes' operations (Env.NoteHelp).
func (p *Proc) HelpGiven() int { return p.helpGiven }

// QuiescentRelease reports whether the process's slice-triggered release
// fired at system quiescence rather than at its AfterSlices threshold —
// i.e. the threshold was aimed past the work that actually ran, so every
// larger threshold yields the identical schedule.
func (p *Proc) QuiescentRelease() bool { return p.quiescent }

type yieldKind int

const (
	// yieldPoint reports an unconcluded slice of the given cost; only a
	// process resumed outside Run (a hand-driven test) sends it.
	yieldPoint yieldKind = iota + 1
	yieldFinished
	yieldPanicked
	// yieldPass carries an already-made decision up the hosting chain to
	// the hosting process to (nil: Run itself, which ends the run).
	yieldPass
)

// yieldMsg is what a coroutine hands its resumer. It stays small, since
// every switch copies it; a panic's value and stack wait on the Proc.
type yieldMsg struct {
	kind yieldKind
	cost int64
	to   *Proc
}

type cpuState struct {
	id      int
	clock   int64
	current *Proc
	ready   readyHeap // not including current
}

// Sim is one simulation run: a memory, a set of processors, and a job set.
type Sim struct {
	cfg  Config
	mem  *shmem.Mem
	cpus []*cpuState
	proc []*Proc
	log  *trace.Log

	// rng is seeded lazily: rngDirty marks that rng does not yet reflect
	// rngSeed. Most sweep schedules never draw randomness, and seeding a
	// math/rand source costs ~600 iterations — eager reseeding on every
	// Reset dominated short-run sweeps.
	rng      *rand.Rand
	rngSeed  int64
	rngDirty bool

	// pendingTime (released by virtual time) and pendingSlice (released
	// by slice count) hold unreleased processes in spawn order: Spawn
	// appends, and every consumer scans the whole list. Processes that
	// fall due together are released in list order, which stamps their
	// enqueueNo and emits their arrival events, so release order must
	// stay spawn order.
	pendingTime  []*Proc
	pendingSlice []*Proc

	slices    uint64
	enqueueNo int
	// resumes counts coroutine resumes (each is two goroutine switches:
	// into the process and, later, back out of it) and decisions counts
	// scheduling decisions (Sim.step picks); both are exact, so the core
	// benchmark gates on them.
	resumes   uint64
	decisions uint64
	ran       bool
	aborting  bool
	failure   error

	// policy is the run's scheduling discipline (never nil after Reset);
	// policyDefault caches whether it is the strict-priority default (the
	// reports' and signatures' "no policy stamp" case).
	policy        Policy
	policyDefault bool

	// procFree recycles Proc/Env pairs (and their parked coroutines)
	// across Reset: sweeps spawn the same small cast thousands of times,
	// and the per-job Proc+Env+coroutine allocation was a top line in the
	// per-schedule profile.
	procFree []*Proc

	// busy and idle cache the occupancy partition of cpus (both in cpu-id
	// order, so min-clock scans preserve the lowest-index tie-break).
	// occDirty marks the partition stale; it is set whenever a processor
	// gains its first ready process or loses its last one, and the run
	// loop rebuilds the partition lazily. This replaces the per-slice
	// O(P) occupancy rescan.
	busy     []*cpuState
	idle     []*cpuState
	occDirty bool

	// helpReceived counts, per algorithm-level slot, how many help
	// invocations other processes performed on operations announced
	// under that slot (Env.NoteHelp).
	helpReceived map[int]int
}

// New creates a simulation from the given configuration.
func New(cfg Config) *Sim { return new(Sim).Reset(cfg) }

// Reset reinitializes s to a freshly-constructed simulation for cfg,
// reusing its memory words, processor states, and slice capacity. A Sim
// reset from cfg is observably identical to New(cfg): same schedules, same
// reports, same traces. Procs handed out by a previous run are recycled by
// the next run's Spawns — do not retain a *Proc (or its Env) across Reset;
// run reports (Sim.Report) copy everything they need. The trace log is
// always freshly allocated so logs returned by Trace stay valid after the
// Sim is reused. Reset returns s for chaining.
func (s *Sim) Reset(cfg Config) *Sim {
	if cfg.Processors <= 0 {
		cfg.Processors = 1
	}
	if cfg.MemWords <= 0 {
		cfg.MemWords = 1 << 16
	}
	if cfg.Granularity == 0 {
		cfg.Granularity = Fine
	}
	if cfg.MaxSteps == 0 {
		cfg.MaxSteps = DefaultMaxSteps
	}
	if cfg.SyncCost <= 0 {
		cfg.SyncCost = 1
	}
	s.cfg = cfg
	s.policy = cfg.Policy
	if s.policy == nil {
		s.policy = defaultPolicy
	}
	_, s.policyDefault = s.policy.(priorityPolicy)
	if s.mem == nil {
		s.mem = shmem.New(cfg.MemWords)
	} else {
		s.mem.Reset(cfg.MemWords)
	}
	s.rngSeed = cfg.Seed
	s.rngDirty = true
	if len(s.cpus) != cfg.Processors {
		s.cpus = make([]*cpuState, 0, cfg.Processors)
		for i := 0; i < cfg.Processors; i++ {
			s.cpus = append(s.cpus, &cpuState{id: i})
		}
	} else {
		for _, c := range s.cpus {
			c.clock = 0
			c.current = nil
			clear(c.ready)
			c.ready = c.ready[:0]
		}
	}
	for _, p := range s.proc {
		if p.started && p.state != stateDone {
			p.stopCoro() // live body: Reset without Run/shutdown
		}
		s.procFree = append(s.procFree, p)
	}
	clear(s.proc)
	s.proc = s.proc[:0]
	clear(s.pendingTime)
	s.pendingTime = s.pendingTime[:0]
	clear(s.pendingSlice)
	s.pendingSlice = s.pendingSlice[:0]
	s.slices = 0
	s.enqueueNo = 0
	s.resumes = 0
	s.decisions = 0
	s.ran = false
	s.aborting = false
	s.failure = nil
	s.busy = s.busy[:0]
	s.idle = s.idle[:0]
	s.occDirty = true
	if s.helpReceived == nil {
		s.helpReceived = make(map[int]int)
	} else {
		clear(s.helpReceived)
	}
	s.log = nil
	if cfg.EnableTrace {
		s.log = &trace.Log{}
		// Attribute failed synchronization attempts to the writer that
		// won the word: the hook fires inside the failing operation's
		// simulator step, charges no virtual time, and becomes a
		// "casfail" annotation that internal/tracex turns into a
		// failed-step → winning-writer causality edge.
		s.mem.SetFailHook(func(ev shmem.FailEvent) {
			if ev.Proc < 0 || ev.Proc >= len(s.proc) {
				return
			}
			p := s.proc[ev.Proc]
			s.emitNote(p.spec.CPU, p, "casfail",
				[]trace.Field{
					trace.I("addr", int64(ev.Addr)),
					trace.I("winner", int64(ev.Winner)),
					trace.I("wstep", int64(ev.WinnerStep)),
				})
		})
	}
	return s
}

// simPool backs Acquire/Release. Pool pick order is nondeterministic, but a
// Reset Sim is state-identical to a new one, so run results are unaffected.
var simPool = sync.Pool{New: func() any { return new(Sim) }}

// Acquire returns a Sim for cfg from an internal pool, equivalent to
// New(cfg) but reusing the memory words, processor states, and bookkeeping
// slices of a previously Released Sim. Use it in sweep loops that build
// thousands of short-lived simulations; pair with Release.
func Acquire(cfg Config) *Sim { return simPool.Get().(*Sim).Reset(cfg) }

// Release returns a Sim to the pool for reuse. Only call it after Run has
// returned — or on a Sim that was never Run — and do not touch s, its
// Procs' Envs, or its Mem afterwards. Trace logs obtained from Trace
// remain valid: Reset never reuses them.
//
// Release unwinds every parked coroutine (coloop) first: those
// persist across Reset to serve Proc recycling within a sweep, but a Sim
// sitting in (or dropped from) the pool must not hold goroutines.
func Release(s *Sim) {
	if s == nil {
		return
	}
	for _, p := range s.proc {
		p.stopCoro()
	}
	for _, p := range s.procFree {
		p.stopCoro()
	}
	simPool.Put(s)
}

// Mem returns the simulation's shared memory, for setup code and checkers.
func (s *Sim) Mem() *shmem.Mem { return s.mem }

// Trace returns the trace log, or nil when tracing is disabled.
func (s *Sim) Trace() *trace.Log { return s.log }

// Processors returns the number of simulated processors.
func (s *Sim) Processors() int { return s.cfg.Processors }

// Rand returns the run's seeded random source, for workload construction.
// The source is (re)seeded on first use after New/Reset, so the draw
// sequence depends only on Config.Seed, never on the Sim's pool history.
func (s *Sim) Rand() *rand.Rand {
	if s.rngDirty {
		s.rngDirty = false
		if s.rng == nil {
			s.rng = rand.New(rand.NewSource(s.rngSeed))
		} else {
			s.rng.Seed(s.rngSeed)
		}
	}
	return s.rng
}

// Slices returns the number of slices executed so far.
func (s *Sim) Slices() uint64 { return s.slices }

// Resumes returns the number of coroutine resumes so far. Each costs two
// goroutine switches: one into the process, one back out of it.
func (s *Sim) Resumes() uint64 { return s.resumes }

// Decisions returns the number of scheduling decisions made so far: one per
// slice, since every slice ends in one.
func (s *Sim) Decisions() uint64 { return s.decisions }

// Policy returns the run's scheduling discipline (never nil).
func (s *Sim) Policy() Policy { return s.policy }

// PolicyLabel returns the policy name as run reports stamp it: empty for
// the default strict-priority discipline (keeping pre-policy reports,
// goldens, and coverage signatures unchanged), the template name otherwise.
func (s *Sim) PolicyLabel() string {
	if s.policyDefault {
		return ""
	}
	return s.policy.Name()
}

// HelpReceived returns the number of help invocations other processes
// performed on operations announced under the given algorithm-level slot.
func (s *Sim) HelpReceived(slot int) int { return s.helpReceived[slot] }

// Spawn registers a job. All jobs must be spawned before Run.
func (s *Sim) Spawn(spec JobSpec) *Proc {
	if s.ran {
		panic("sched: Spawn after Run")
	}
	if spec.CPU < 0 || spec.CPU >= s.cfg.Processors {
		panic(fmt.Sprintf("sched: job %q on invalid cpu %d (have %d)", spec.Name, spec.CPU, s.cfg.Processors))
	}
	if spec.Body == nil {
		panic("sched: job with nil body")
	}
	p := s.takeProc()
	p.id = len(s.proc)
	p.spec = spec
	p.state = stateUnreleased
	if p.spec.Name == "" {
		p.spec.Name = fmt.Sprintf("p%d", p.id)
	}
	if p.spec.Slot < 0 {
		p.spec.Slot = p.id
	}
	*p.env = Env{sim: s, p: p, cpu: s.cpus[spec.CPU]}
	s.proc = append(s.proc, p)
	if spec.AfterSlices >= 0 && spec.At == 0 {
		// Slice-triggered release. (AfterSlices==0 with At==0 releases
		// immediately, same as At: 0, so both encodings agree.)
		s.pendingSlice = append(s.pendingSlice, p)
	} else {
		s.pendingTime = append(s.pendingTime, p)
	}
	return p
}

// takeProc returns a recycled Proc from the free list — all fields zeroed,
// Env, parked coroutine, and opSamples backing kept — or a fresh one. The
// coroutine is created lazily by startIfNeeded.
func (s *Sim) takeProc() *Proc {
	if n := len(s.procFree); n > 0 {
		p := s.procFree[n-1]
		s.procFree[n-1] = nil
		s.procFree = s.procFree[:n-1]
		e, samples := p.env, p.opSamples[:0]
		next, stop := p.next, p.stop
		*p = Proc{next: next, stop: stop, opSamples: samples}
		p.env = e
		return p
	}
	return &Proc{env: &Env{}}
}

// SpawnAt is shorthand for a time-released job.
func (s *Sim) SpawnAt(at int64, cpu int, prio Priority, name string, body func(*Env)) *Proc {
	return s.Spawn(JobSpec{Name: name, CPU: cpu, Prio: prio, Slot: -1, At: at, AfterSlices: -1, Body: body})
}

// Procs returns all spawned processes in spawn order.
func (s *Sim) Procs() []*Proc { return s.proc }

func (s *Sim) emit(kind trace.Kind, cpu int, p *Proc, msg string) {
	if s.log == nil {
		return
	}
	ev := trace.Event{Time: s.cpus[cpu].clock, CPU: cpu, Proc: -1, Kind: kind, Msg: msg}
	if p != nil {
		ev.Proc = p.id
		ev.ProcName = p.spec.Name
	}
	s.log.Append(ev)
}

// emitNote appends a structured annotation: key/args carry the typed form
// consumed by internal/tracex. The rendered text is not materialized here —
// trace.Event.Message formats it on demand — and the args are copied into
// the event's inline field array, so emission allocates nothing beyond the
// log's amortized chunk growth.
func (s *Sim) emitNote(cpu int, p *Proc, key string, args []trace.Field) {
	if s.log == nil {
		return
	}
	ev := trace.Event{
		Time: s.cpus[cpu].clock, CPU: cpu, Proc: -1,
		Kind: trace.KindAnnotate,
		Key:  key,
	}
	ev.SetFields(args)
	if p != nil {
		ev.Proc = p.id
		ev.ProcName = p.spec.Name
	}
	s.log.Append(ev)
}

// release moves a job into its processor's ready set, possibly preempting.
func (s *Sim) release(p *Proc) {
	c := s.cpus[p.spec.CPU]
	if c.current == nil && len(c.ready) == 0 {
		// The processor goes idle → busy.
		s.occDirty = true
	}
	p.state = stateReady
	p.Released = c.clock
	p.enqueueNo = s.enqueueNo
	s.enqueueNo++
	p.key = s.policy.Key(JobInfo{
		ID: p.id, CPU: p.spec.CPU, Slot: p.spec.Slot,
		Prio: p.spec.Prio, Cost: p.spec.Cost, Released: p.Released,
	})
	s.emit(trace.KindArrival, c.id, p, "")
	c.ready.push(p)
}

// deliverTimeArrivals releases time-triggered jobs whose time has come on
// their processor.
func (s *Sim) deliverTimeArrivals() {
	kept := s.pendingTime[:0]
	for _, p := range s.pendingTime {
		if p.spec.At <= s.cpus[p.spec.CPU].clock {
			s.release(p)
		} else {
			kept = append(kept, p)
		}
	}
	s.pendingTime = kept
}

// deliverSliceArrivals releases slice-triggered jobs whose trigger has fired.
func (s *Sim) deliverSliceArrivals() {
	kept := s.pendingSlice[:0]
	for _, p := range s.pendingSlice {
		if uint64(p.spec.AfterSlices) <= s.slices {
			s.release(p)
		} else {
			kept = append(kept, p)
		}
	}
	s.pendingSlice = kept
}

// pick selects the process to run on cpu c under the policy's rules, or nil.
func (s *Sim) pick(c *cpuState) *Proc {
	if c.current != nil && c.current.env.noPreempt > 0 {
		// Preemption disabled (Figure 8(b) lines 3-4): the current
		// process keeps the processor even against higher priorities.
		return c.current
	}
	if len(c.ready) == 0 {
		return c.current
	}
	top := c.ready[0]
	if c.current != nil && !s.policy.Preempts(top.key, c.current.key) {
		// Equal keys never preempt (no time slicing); under the default
		// policy this is exactly "equal or lower priority never
		// preempts".
		return c.current
	}
	// Preempt or dispatch. A preempted process keeps its original
	// enqueueNo, so it rejoins the ready set exactly where the previous
	// stable sort would have placed it.
	if c.current != nil {
		s.emit(trace.KindPreempt, c.id, c.current, "")
		c.current.state = stateReady
		c.current.Preemptions++
		c.ready.push(c.current)
	}
	top = c.ready.pop()
	c.current = top
	// The state transition (and its Dispatch trace event) is applied by
	// the run loop, which observes top.state != stateRunning.
	return top
}

// startIfNeeded launches the coroutine on first dispatch. iter.Pull hands
// control between coroutines with a direct goroutine switch, the dominant
// per-slice cost on contended multiprocessor runs, where the min-clock
// interleaving changes processors every slice. Any goroutine that holds
// control may resume the coroutine: Run for the first slice, afterwards
// whichever process made the decision (Env.handOff). A recycled Proc's
// coroutine is still parked in its coloop from the previous schedule and
// resumes into the new body directly.
func (s *Sim) startIfNeeded(p *Proc) {
	if p.started {
		return
	}
	p.started = true
	p.Started = s.cpus[p.spec.CPU].clock
	if p.next == nil {
		p.next, p.stop = iter.Pull(p.coloop)
	}
}

// coloop is the persistent coroutine: one job body per resume, parking at
// the body's final yield until a resumer installs the next body (Proc
// recycling across Reset — see takeProc) or unwinds the loop (stopCoro
// makes the parked yield return false). iter.Pull's next and yield form a
// strict rendezvous, and only the one coroutine (or Run) that holds control
// ever resumes another, so exactly one side touches simulator state at a
// time. Persisting the coroutine across schedules removes the per-run
// iter.Pull construction — coroutine, stack and closure — that dominated
// the sweep-mode allocation profile.
func (p *Proc) coloop(yield func(yieldMsg) bool) {
	for yield(p.runBody(yield)) {
	}
}

// runBody executes the current job body, translating completion, panic and
// abort into the final yield message. An aborted body (errAborted — the
// scheduler shutting down, or stopCoro unwinding the loop) finishes like a
// completed one; coloop's closing yield then reports it or returns false.
func (p *Proc) runBody(yield func(yieldMsg) bool) (msg yieldMsg) {
	e := p.env
	e.yield = yield
	defer func() {
		e.yield = nil
		msg = yieldMsg{kind: yieldFinished, cost: e.pending}
		if r := recover(); r != nil && r != errAborted { //nolint:errorlint // sentinel identity is intended
			msg = yieldMsg{kind: yieldPanicked}
			p.panicVal, p.panicStack = r, debug.Stack()
		}
	}()
	p.spec.Body(e)
	return
}

// stopCoro unwinds a parked coroutine: iter.Pull's stop makes
// the pending yield return false, which ends coloop (a mid-body park
// unwinds through the errAborted sentinel first). No-op without one. Only
// call while the coroutine is suspended — after Run has returned, or on a
// recycled Proc before its first dispatch.
func (p *Proc) stopCoro() {
	if p.stop == nil {
		return
	}
	p.stop()
	p.next, p.stop = nil, nil
}

// resume switches into p, already prepared by step, and returns the message
// it yields back: its final one, or a pass on its way up the hosting chain.
// On a final message the coroutine stays parked inside coloop's closing
// yield, ready for the Proc's next body (takeProc) — Release unwinds it
// before pooling the Sim. It only ends without a message when stopped, which
// a run never sees; treat that defensively as completion.
func (s *Sim) resume(p *Proc) yieldMsg {
	s.resumes++
	msg, ok := p.next()
	if !ok {
		msg = yieldMsg{kind: yieldFinished}
	}
	return msg
}

// conclude applies the end of p's slice — its cost, completion or panic —
// and counts the slice against the watchdog. Run calls it for final
// messages; a process concludes its own preemption points (Env.yieldNow).
func (s *Sim) conclude(p *Proc, msg yieldMsg) {
	c := p.env.cpu
	s.mem.SetCurrentProc(-1)
	switch msg.kind {
	case yieldPoint:
		c.clock += msg.cost
	case yieldFinished:
		c.clock += msg.cost
		p.state = stateDone
		p.Completed = c.clock
		c.current = nil
		if len(c.ready) == 0 {
			// The processor goes busy → idle.
			s.occDirty = true
		}
		s.emit(trace.KindComplete, c.id, p, "")
	case yieldPanicked:
		p.state = stateDone
		c.current = nil
		if len(c.ready) == 0 {
			s.occDirty = true
		}
		if s.failure == nil {
			s.failure = fmt.Errorf("sched: process %q (id %d) panicked: %v\n%s", p.spec.Name, p.id, p.panicVal, p.panicStack)
		}
	}
	// Note: p.env.pending is owned by the coroutine (reset in yieldNow
	// before it concludes); the scheduler must not touch it.
	s.slices++
	if s.slices > s.cfg.MaxSteps {
		s.failure = fmt.Errorf("%w (limit %d)", ErrWatchdog, s.cfg.MaxSteps)
	}
}

// Run executes the simulation until every released job completes. It returns
// the first process panic or a watchdog error, if any. Run may be called
// once.
//
// Run makes the first decision and resumes the chosen process; from then on
// the processes schedule each other (Env.handOff), and control comes back
// here only when a process finishes or panics as Run's direct child, or when
// the run is over (a pass addressed to Run).
func (s *Sim) Run() error {
	if s.ran {
		return errors.New("sched: Run called twice")
	}
	s.ran = true
	for p := s.step(); p != nil; p = s.step() {
		msg := s.resume(p)
		if msg.kind == yieldPass {
			break // nothing hosts Run: the pass ends the run
		}
		s.conclude(p, msg)
	}
	s.shutdown()
	return s.failure
}

// step makes the next scheduling decision: it delivers due arrivals, picks
// the busy processor with the smallest clock and the process to run there,
// dispatches it, and prepares its slice. It returns nil once the run is over
// (a failure, or no work left). step runs on whichever goroutine holds
// control — Run's or a process's coroutine — and decides identically on
// each.
func (s *Sim) step() *Proc {
	for s.failure == nil {
		if len(s.pendingSlice) > 0 {
			s.deliverSliceArrivals()
		}
		if len(s.pendingTime) > 0 {
			s.deliverTimeArrivals()
		}
		if s.occDirty {
			s.rebuildOccupancy()
		}

		// Choose the busy processor with the smallest clock. The cached
		// busy list is in cpu-id order, so the first strictly-smaller
		// scan keeps the lowest-index tie-break of the full rescan it
		// replaces.
		var c *cpuState
		for _, cand := range s.busy {
			if c == nil || cand.clock < c.clock {
				c = cand
			}
		}
		if c != nil && len(s.idle) > 0 {
			// Idle processors' wall clocks advance with the rest of
			// the machine, so a timed arrival on an idle processor
			// is delivered at its real time, not at system
			// quiescence.
			advanced := false
			for _, idle := range s.idle {
				if idle.clock < c.clock {
					idle.clock = c.clock
					advanced = true
				}
			}
			if advanced && len(s.pendingTime) > 0 {
				s.deliverTimeArrivals()
				continue
			}
		}
		if c == nil {
			// All processors idle: jump to the earliest pending
			// time arrival, if any.
			if s.jumpToNextArrival() {
				continue
			}
			// Slice-triggered jobs whose trigger lies beyond the
			// work that actually ran are released at quiescence
			// (an adversary aimed past its victim simply runs
			// last).
			if len(s.pendingSlice) > 0 {
				for _, p := range s.pendingSlice {
					p.quiescent = true
					s.release(p)
				}
				s.pendingSlice = s.pendingSlice[:0]
				continue
			}
			return nil // no work left
		}
		p := s.pick(c)
		if p == nil {
			continue
		}
		if p.state != stateRunning {
			p.state = stateRunning
			p.Dispatches++
			s.emit(trace.KindDispatch, c.id, p, "")
		}
		s.decisions++
		s.startIfNeeded(p)
		p.Slices++
		s.mem.SetCurrentProc(p.id)
		return p
	}
	return nil
}

// rebuildOccupancy recomputes the busy/idle partition of the processors,
// both lists in cpu-id order.
func (s *Sim) rebuildOccupancy() {
	s.busy = s.busy[:0]
	s.idle = s.idle[:0]
	for _, c := range s.cpus {
		if c.current != nil || len(c.ready) > 0 {
			s.busy = append(s.busy, c)
		} else {
			s.idle = append(s.idle, c)
		}
	}
	s.occDirty = false
}

// jumpToNextArrival advances an idle system to its earliest time arrival.
// It reports whether any arrival existed.
func (s *Sim) jumpToNextArrival() bool {
	var best *Proc
	for _, p := range s.pendingTime {
		if best == nil || p.spec.At < best.spec.At ||
			(p.spec.At == best.spec.At && p.id < best.id) {
			best = p
		}
	}
	if best == nil {
		// Slice-triggered jobs can never fire on an idle system
		// (slices only advance when something runs); Run reports them.
		return false
	}
	c := s.cpus[best.spec.CPU]
	if c.clock < best.spec.At {
		c.clock = best.spec.At
	}
	s.deliverTimeArrivals()
	return true
}

// shutdown unwinds any live coroutines so no goroutines leak.
func (s *Sim) shutdown() {
	s.aborting = true
	for _, p := range s.proc {
		if !p.started || p.state == stateDone || p.state == stateUnreleased {
			continue
		}
		// Resume until the body unwinds: the coroutine observes aborting
		// as soon as its parked yield returns, and the errAborted sentinel
		// surfaces as its final yield. The loop then parks for reuse, like
		// a normal completion.
		for {
			m, ok := p.next()
			if !ok || m.kind == yieldFinished || m.kind == yieldPanicked {
				break
			}
		}
		p.state = stateDone
	}
}

// Elapsed returns the makespan: the largest processor clock.
func (s *Sim) Elapsed() int64 {
	var max int64
	for _, c := range s.cpus {
		if c.clock > max {
			max = c.clock
		}
	}
	return max
}

// CPUClock returns processor cpu's virtual clock.
func (s *Sim) CPUClock(cpu int) int64 { return s.cpus[cpu].clock }
