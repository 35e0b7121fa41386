// Package workload builds and runs the paper's evaluation workloads
// (Section 3.4) and the Figure 1 parameter sweeps.
//
// The §3.4 experiment: processes on P processors perform a fixed total
// number of insertion/deletion operations on a sorted list seeded with
// listSize elements, under priority-based preemption. The paper simulated
// preemption by random relinquishment at predefined preemption points; here
// preemption arises from genuinely prioritized job arrivals: each processor
// runs a base-priority worker plus bursts of higher-priority jobs released
// throughout the run, so operations are preempted mid-flight and the helping
// machinery is exercised exactly as the model intends.
//
// The same harness runs all four list implementations (wait-free,
// Greenwald–Cheriton CAS2 lock-free, CAS-only lock-free, spin-lock) so
// total-time ratios and worst-case behaviour are directly comparable.
//
// Every run, the MWCAS throughput runs and the base-op probe included, is
// a registry.Cast spawned through Cast.Spawn on a registry instance. The
// jobs' scripts are streamed: each draws its ops as it runs, from the same
// per-process random stream Env.Rand would hand the job, so a 50,000-op
// run never holds its ops in memory.
package workload

import (
	"errors"
	"fmt"
	"math/rand"

	"repro/internal/arrival"
	"repro/internal/baseline/gclist"
	"repro/internal/baseline/valois"
	"repro/internal/helping"
	"repro/internal/metrics"
	"repro/internal/prim"
	"repro/internal/registry"
	"repro/internal/sched"
	"repro/internal/trace"
)

// List is the common surface of all list implementations under test: the
// list-family instance of the registry op model.
type List = registry.List

// Kind selects a list implementation.
type Kind string

// The list implementations the harness can run.
const (
	// WaitFree is the paper's multiprocessor wait-free list (Figure 7).
	WaitFree Kind = "waitfree"
	// WaitFreeUni is the paper's uniprocessor wait-free list (Figure 5);
	// requires Processors == 1.
	WaitFreeUni Kind = "waitfree-uni"
	// LockFreeGC is the Greenwald–Cheriton CAS2 lock-free list [7].
	LockFreeGC Kind = "lockfree-gc"
	// CASOnly is the Valois-lineage CAS-only lock-free list [13].
	CASOnly Kind = "casonly-valois"
	// LockBased is the test-and-set spin-lock list.
	LockBased Kind = "lockbased"
)

// Kinds lists all runnable kinds.
func Kinds() []Kind {
	return []Kind{WaitFree, WaitFreeUni, LockFreeGC, CASOnly, LockBased}
}

// ListConfig parameterizes one experiment run.
type ListConfig struct {
	Kind Kind
	// Processors is P. BurstsPerCPU higher-priority bursts of BurstOps
	// operations each are injected per processor over the run.
	Processors   int
	BurstsPerCPU int
	BurstOps     int
	// TotalOps is the total operation count across all jobs (the paper
	// used 50,000).
	TotalOps int
	// ListSize is the seeded list length (the paper used 200-2,000).
	// Keys are drawn from [1, 2*ListSize] so roughly half the operations
	// hit present keys.
	ListSize int
	Seed     int64
	// CC, Mode, Stride, OneRound configure the wait-free list (ignored
	// otherwise). Stride defaults to 100, the paper's measured setup.
	CC       prim.Impl
	Mode     helping.Mode
	Stride   int
	OneRound bool
	// Granularity defaults to Coarse (preemption at synchronizing
	// operations), which the big sweeps need for speed; correctness
	// tests use Fine.
	Granularity sched.Granularity
	// SyncCost prices synchronizing operations (sched.Config.SyncCost).
	SyncCost int64
	// SearchPercent is the percentage of operations that are searches
	// (the remainder splits evenly between inserts and deletes). The
	// paper's workload used none; real kernels are read-heavy.
	SearchPercent int
	// Policy names the scheduling discipline ("" = strict priority). The
	// suite accepts the disciplines its helping-protocol model is sound
	// for (see PolicyAccepted) and refuses the rest with a wrapped
	// sched.ErrNonPriorityPolicy.
	Policy string
	// Check attaches the structural linearizability checker (slower).
	Check bool
	// EnableTrace records the run's event log (ListResult.TraceLog) for
	// span reconstruction with internal/tracex. Emission charges no
	// virtual time, so traced and untraced runs measure identically.
	EnableTrace bool
}

// ListResult is the measured outcome of one run.
type ListResult struct {
	Cfg      ListConfig
	Ops      int
	Makespan int64
	// WorstOp is the worst operation response time (virtual units),
	// including preemption and helping delay.
	WorstOp int64
	// BaseOp is the interference-free cost of one operation at this list
	// size, measured in a separate single-process run. WorstOp/BaseOp is
	// the paper's "at most eight times that of an interference-free
	// operation" metric.
	BaseOp int64
	// Retries/WorstRetries are retry statistics for the lock-free kinds
	// (zero for wait-free: wait-free operations never retry).
	Retries      int
	WorstRetries int
	// Final is the final list length (sanity).
	Final int
	// Livelocked is set when the run tripped the step watchdog — the
	// expected outcome for the lock-based list under priority
	// preemption (unbounded priority inversion), and a hard failure for
	// every other kind.
	Livelocked bool
	// Report is the run's full observability report: per-process step
	// counts, CAS-failure counts, helping and preemption accounting, and
	// response-time histograms. On a livelocked run it is the snapshot at
	// watchdog time.
	Report *metrics.Report
	// TraceLog is the run's event log when Cfg.EnableTrace was set, nil
	// otherwise; feed it to tracex.Build for the span model.
	TraceLog *trace.Log
}

// acceptedPolicies names the scheduling disciplines the suite runs
// under. The workload's measurement model leans on two properties: a
// dispatched job keeps its processor until a *higher-priority* release
// preempts it (so the burst jobs are the only interference source), and
// the base workers are never starved outright (so every run terminates
// with its op budget spent). Strict priority is the paper's model;
// fcfs and priority-fcfs are non-preemptive, which only removes
// preemption edges — the helping protocol stays sound and the bursts
// still serialize against the base workers. The remaining disciplines
// (sjf, age-slo, reverse-priority) reorder or invert dispatch in ways
// the suite's burst-interference accounting does not model, so they are
// refused rather than silently mismeasured.
var acceptedPolicies = map[string]bool{
	"":              true,
	"priority":      true,
	"fcfs":          true,
	"priority-fcfs": true,
}

// PolicyAccepted reports whether the suite runs under the named policy
// ("" = the strict-priority default).
func PolicyAccepted(name string) bool { return acceptedPolicies[name] }

// AcceptedPolicies lists the non-empty accepted policy names, sorted.
func AcceptedPolicies() []string { return []string{"fcfs", "priority", "priority-fcfs"} }

// resolvePolicy gate-checks and resolves a ListConfig/MWCASConfig policy
// name.
func resolvePolicy(name string) (sched.Policy, error) {
	pol, err := sched.PolicyByName(name)
	if err != nil {
		return nil, fmt.Errorf("workload: %w", err)
	}
	if !acceptedPolicies[name] {
		return nil, fmt.Errorf("workload: %w: the workload suite models burst interference under priority/fcfs/priority-fcfs only, not policy %q",
			sched.ErrNonPriorityPolicy, pol.Name())
	}
	return pol, nil
}

// layout is the job shape both runners share, in units of ops or commits:
// one priority-1 base worker per processor, released at time zero and
// splitting what the bursts leave (cpu0 takes the remainder), then bursts
// jobs per processor of burst units each at nested priorities 2 + b%3,
// staggered across the run. Each job is its own slot.
type layout struct {
	procs, bursts, burst, total int
}

// check rejects a layout the runners cannot run.
func (l layout) check(unit string) error {
	switch {
	case l.procs < 1:
		return fmt.Errorf("workload: processors %d out of range", l.procs)
	case l.total < 0:
		return fmt.Errorf("workload: total %s %d is negative", unit, l.total)
	case l.bursts < 0 || l.burst < 0:
		return fmt.Errorf("workload: negative burst configuration")
	case l.procs*l.bursts*l.burst > l.total:
		return fmt.Errorf("workload: burst %s %d exceed total %d", unit, l.procs*l.bursts*l.burst, l.total)
	}
	return nil
}

// slots is the job count.
func (l layout) slots() int { return l.procs * (1 + l.bursts) }

// cast declares the jobs in spawn order; script(id, n) is job id's script
// of n units. Spawned first into its sim, job id is also proc id, the id
// Env.Rand seeds from. Burst b is released at a slice count drawn from rng
// within the (b+1)-th of bursts+1 equal spans of an est-slice run.
func (l layout) cast(rng *rand.Rand, est int64, script func(id, n int) registry.Script) registry.Cast {
	c := make(registry.Cast, 0, l.slots())
	baseTotal := l.total - l.procs*l.bursts*l.burst
	per := baseTotal / l.procs
	for cpu := range l.procs {
		n := per
		if cpu == 0 {
			n += baseTotal - per*l.procs
		}
		c = append(c, registry.Job{
			Name: fmt.Sprintf("base%d", cpu), CPU: cpu, Prio: 1, Slot: cpu,
			Release: arrival.Now, Script: script(cpu, n),
		})
	}
	span := est / int64(l.bursts+1)
	for cpu := range l.procs {
		for b := range l.bursts {
			id := len(c)
			release := est*int64(b+1)/int64(l.bursts+1) + rng.Int63n(span+1)
			c = append(c, registry.Job{
				Name: fmt.Sprintf("burst%d", id-l.procs), CPU: cpu, Prio: sched.Priority(2 + b%3), Slot: id,
				Release: arrival.Release{AfterSlices: release}, Script: script(id, l.burst),
			})
		}
	}
	return c
}

// kindToObject maps the workload kinds onto registry names.
var kindToObject = map[Kind]string{
	WaitFree:    "multilist",
	WaitFreeUni: "unilist",
	LockFreeGC:  "gclist",
	CASOnly:     "valois",
	LockBased:   "locklist",
}

// buildList constructs the configured list inside s via the registry,
// seeded with the even keys 2..2·ListSize; cfg.Check arms the object's own
// linearizability checker.
func buildList(s *sched.Sim, cfg ListConfig, slots int) (registry.Instance, error) {
	name, ok := kindToObject[cfg.Kind]
	if !ok {
		return nil, fmt.Errorf("workload: unknown kind %q", cfg.Kind)
	}
	if cfg.Kind == WaitFreeUni && cfg.Processors != 1 {
		return nil, fmt.Errorf("workload: %s requires one processor, got %d", cfg.Kind, cfg.Processors)
	}
	keys := make([]uint64, cfg.ListSize)
	for i := range keys {
		keys[i] = uint64(2 * (i + 1)) // even keys seeded
	}
	inst, err := registry.Build(s, name, registry.Config{
		Processors: cfg.Processors,
		Procs:      slots,
		Capacity:   cfg.ListSize + cfg.TotalOps + 4*slots + 8,
		SeedKeys:   keys,
		CC:         cfg.CC, Mode: cfg.Mode, Stride: cfg.Stride, OneRound: cfg.OneRound,
		Check: cfg.Check,
	})
	if err != nil {
		return nil, fmt.Errorf("workload: %w", err)
	}
	return inst, nil
}

// mix is a list job's script: n ops on keys [1, keys], drawn as the job
// runs from the stream Env.Rand hands job id in a run seeded seed. Each op
// draws its key, then a search roll against the search percentage, then
// an insert/delete coin; search < 0 skips the roll (the probe's
// update-only mix).
type mix struct {
	seed                int64
	id, n, keys, search int
}

func (m mix) Len() int { return m.n }

func (m mix) Run(apply func(registry.Op) registry.Result) {
	if m.n == 0 {
		return // an empty job seeds no stream (~17 µs each on a 2-vCPU host)
	}
	rng := sched.ProcRand(m.seed, m.id)
	for range m.n {
		op := registry.Op{Code: registry.OpDelete, Key: uint64(1 + rng.Intn(m.keys))}
		switch {
		case m.search >= 0 && rng.Intn(100) < m.search:
			op.Code = registry.OpSearch
		case rng.Intn(2) == 0:
			op.Code, op.Val = registry.OpInsert, op.Key
		}
		apply(op)
	}
}

// RunList executes one experiment run and returns its measurements.
func RunList(cfg ListConfig) (*ListResult, error) {
	lay := layout{procs: cfg.Processors, bursts: cfg.BurstsPerCPU, burst: cfg.BurstOps, total: cfg.TotalOps}
	if err := lay.check("ops"); err != nil {
		return nil, err
	}
	// The base-op probe draws its keys from the list size even when the
	// run itself performs no ops.
	if cfg.ListSize < 1 {
		return nil, fmt.Errorf("workload: list size %d out of range (need >= 1)", cfg.ListSize)
	}
	if cfg.SearchPercent < 0 || cfg.SearchPercent > 100 {
		return nil, fmt.Errorf("workload: search percentage %d out of range", cfg.SearchPercent)
	}
	if cfg.Granularity == 0 {
		cfg.Granularity = sched.Coarse
	}
	pol, err := resolvePolicy(cfg.Policy)
	if err != nil {
		return nil, err
	}

	slots := lay.slots()
	capacity := cfg.ListSize + cfg.TotalOps + 4*slots + 8
	s := sched.New(sched.Config{
		Processors:  cfg.Processors,
		Seed:        cfg.Seed,
		MemWords:    3*capacity + 64*slots + 1<<13,
		Granularity: cfg.Granularity,
		SyncCost:    cfg.SyncCost,
		MaxSteps:    uint64(cfg.TotalOps)*uint64(cfg.ListSize+64)*8*uint64(max(cfg.SyncCost, 1)) + 1<<22,
		EnableTrace: cfg.EnableTrace,
		Policy:      pol,
	})
	inst, err := buildList(s, cfg, slots)
	if err != nil {
		return nil, err
	}
	// A rough per-op slice estimate places the bursts: late triggers fire
	// at quiescence, early ones merely shift the preemption pattern.
	est := int64(cfg.TotalOps * (8 + cfg.ListSize/16))
	lay.cast(s.Rand(), est, func(id, n int) registry.Script {
		return mix{seed: cfg.Seed, id: id, n: n, keys: 2 * cfg.ListSize, search: cfg.SearchPercent}
	}).Spawn(s, inst)

	runErr := s.Run()
	rep := s.Report(string(cfg.Kind))
	res := &ListResult{Cfg: cfg, Ops: rep.OpTime.Count, Makespan: s.Elapsed(), WorstOp: rep.OpTime.Max,
		BaseOp: 1, Report: rep, TraceLog: s.Trace()}
	if errors.Is(runErr, sched.ErrWatchdog) {
		// Livelock: report it as a measurement (the paper's motivating
		// failure mode for lock-based objects).
		res.Livelocked = true
		return res, nil
	}
	if runErr != nil {
		return nil, fmt.Errorf("workload: %w", runErr)
	}
	if err := inst.CheckErr(); err != nil {
		return nil, err
	}
	res.Final = len(inst.Snapshot())
	switch v := inst.Underlying().(type) {
	case *gclist.List:
		st := v.TotalStats()
		res.Retries, res.WorstRetries = st.Retries, st.WorstRetries
	case *valois.List:
		st := v.TotalStats()
		res.Retries, res.WorstRetries = st.Retries, st.WorstRetries
	}
	if res.BaseOp, err = measureBaseOp(cfg, pol); err != nil {
		return nil, err
	}
	return res, nil
}

// measureBaseOp runs the interference-free probe: one job alone on one
// processor, seeded one past the run, performing probeOps inserts and
// deletes at the run's list size. Its worst op response (at least 1) is the
// baseline per-operation cost.
func measureBaseOp(cfg ListConfig, pol sched.Policy) (int64, error) {
	const probeOps = 32
	s := sched.New(sched.Config{
		Processors:  1,
		Seed:        cfg.Seed + 1,
		MemWords:    3*(cfg.ListSize+probeOps+32) + 1<<13,
		Granularity: cfg.Granularity,
		Policy:      pol,
	})
	probe := cfg
	probe.Processors, probe.TotalOps, probe.Check = 1, probeOps, false
	inst, err := buildList(s, probe, 1)
	if err != nil {
		return 0, err
	}
	registry.Cast{{
		Name: "probe", Prio: 1, Release: arrival.Now,
		Script: mix{seed: cfg.Seed + 1, n: probeOps, keys: 2 * cfg.ListSize, search: -1},
	}}.Spawn(s, inst)
	if err := s.Run(); err != nil {
		return 0, fmt.Errorf("workload: base-op probe: %w", err)
	}
	return max(s.Report(string(cfg.Kind)).OpTime.Max, 1), nil
}
