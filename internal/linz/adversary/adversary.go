// Package adversary generates seeded randomized schedules for the
// black-box linearizability engine (internal/linz).
//
// The release-point sweeps (internal/explore, cmd/wfcheck) enumerate small
// neighborhoods of the schedule space exhaustively; this package samples
// it stochastically, the complementary discipline Alistarh/Censor-Hillel/
// Shavit argue real systems are actually subject to. Both strategies are
// layered on the scheduler's deterministic slice-triggered releases
// (sched.JobSpec.AfterSlices), so every run is a pure function of its
// (object, seed, strategy) triple — a failing seed is a perfect
// reproducer, replayable under wftrace -linz.
//
// Two strategies:
//
//   - Uniform: every worker gets an independent uniformly random release
//     point, a random priority (distinct per processor for the core
//     families), and — for multiprocessor objects — a random processor.
//   - PCT: a PCT-style priority-change schedule (Burckhardt et al.): the
//     base workers start together under a random priority permutation, and
//     d "change points", drawn uniformly over the run, each release a
//     strictly-higher-priority booster process that performs operations of
//     its own. Since the simulator's process priorities are fixed for the
//     duration of an access (the paper's model), the PCT priority *drop*
//     is emulated by its dual: control is forcibly shifted at each change
//     point by a new higher-priority arrival.
//
// Baseline objects run under equal priorities across two processors: the
// lock-based baseline livelocks by design when a spinning waiter preempts
// the lock holder on its own processor (that is the paper's motivating
// failure, demonstrated elsewhere), and the adversary suite's job is to
// produce checkable histories, not to re-demonstrate priority inversion.
package adversary

import (
	"fmt"
	"math/rand"

	"repro/internal/arrival"
	"repro/internal/cover"
	"repro/internal/linz"
	"repro/internal/registry"
	"repro/internal/sched"
)

// Strategy selects a schedule generator.
type Strategy int

const (
	// Uniform draws independent uniform release points for every worker.
	Uniform Strategy = iota + 1
	// PCT emulates a PCT-style priority-change schedule with
	// higher-priority boosters released at random change points.
	PCT
)

// String returns the strategy name.
func (s Strategy) String() string {
	switch s {
	case Uniform:
		return "uniform"
	case PCT:
		return "pct"
	default:
		return fmt.Sprintf("strategy(%d)", int(s))
	}
}

// ParseStrategy resolves a strategy name.
func ParseStrategy(name string) (Strategy, error) {
	switch name {
	case "uniform":
		return Uniform, nil
	case "pct":
		return PCT, nil
	}
	return 0, fmt.Errorf("adversary: unknown strategy %q (want uniform or pct)", name)
}

// Config parameterizes one randomized run.
type Config struct {
	// Object is any registered object (core or baseline).
	Object string
	// Seed determines everything: the schedule, the op streams, the
	// simulation.
	Seed int64
	// Strategy defaults to Uniform.
	Strategy Strategy
	// Workers is the number of base worker processes (default 3).
	Workers int
	// Ops is the number of operations per worker (default 3).
	Ops int
	// Boosters is the number of PCT change points (default 2; Uniform
	// ignores it). Each booster performs 2 operations.
	Boosters int
	// Horizon bounds the random release points, in executed slices
	// (default 160 — roughly the span of a few operations).
	Horizon int64
	// Policy names the scheduling discipline (sched.PolicyNames());
	// empty means the paper's strict-priority model. The generated
	// schedule (releases, priorities, processors) is policy-independent;
	// only dispatch and preemption order change.
	Policy string
	// Trace enables event recording on the simulation (wftrace -linz).
	Trace bool
}

// boosterOps is the fixed op count of a PCT booster process.
const boosterOps = 2

// Run is one executed randomized schedule: the completed simulation, the
// recorded history, and the spec to check it against.
type Run struct {
	Sim     *sched.Sim
	History *linz.History
	Spec    linz.Spec
	Desc    *registry.Descriptor
	// Policy is the scheduling policy name when off the default, ""
	// otherwise (kept here, not read off Sim, so Sig works after Close).
	Policy string
}

// Check hands the recorded history to the engine.
func (r *Run) Check(opts linz.Options) (linz.Outcome, error) {
	return linz.Check(r.History, r.Spec, opts)
}

// Sig returns the run's interleaving-shape signature for schedule-space
// coverage (internal/cover): a hash of the object identity and, per
// recorded operation, its slot, opcode, and invoke/return event indices.
// Two seeds whose schedules drove the same operations through the same
// interleaving collide — the behavioral equivalence the coverage counters
// are after. Operation keys/values and outcomes are excluded on purpose:
// they vary with the generated streams, not with the schedule shape.
func (r *Run) Sig() uint64 {
	h := cover.NewHasher()
	h.String(r.Desc.Name)
	// Keyed by the (off-default) policy: the same seed under two
	// disciplines is two different schedules. Empty folds nothing, so
	// default-policy signatures are unchanged.
	h.String(r.Policy)
	h.Word(uint64(r.History.Events))
	for _, op := range r.History.Ops {
		h.Word(uint64(op.Proc))
		h.Word(uint64(op.Op.Code))
		h.Word(uint64(op.Invoke))
		h.Word(uint64(int64(op.Return)))
		if op.Pending {
			h.Word(1)
		} else {
			h.Word(0)
		}
	}
	return h.Sum()
}

// Close returns the run's simulation to the scheduler pool. Call it once the
// history, report, and trace have been consumed; the Run must not be used
// afterwards. Sweep drivers that execute thousands of randomized schedules
// call this to reuse simulator memory across runs.
func (r *Run) Close() {
	if r.Sim == nil {
		return
	}
	sched.Release(r.Sim)
	r.Sim = nil
}

// Execute builds and runs the randomized schedule. The returned error
// covers simulation failures (a panic or watchdog is a violation in its
// own right); the linearizability verdict comes from Run.Check.
func Execute(cfg Config) (*Run, error) {
	d, err := registry.Lookup(cfg.Object)
	if err != nil {
		return nil, err
	}
	if cfg.Strategy == 0 {
		cfg.Strategy = Uniform
	}
	if cfg.Workers <= 0 {
		cfg.Workers = 3
	}
	if cfg.Ops <= 0 {
		cfg.Ops = 3
	}
	if cfg.Boosters <= 0 {
		cfg.Boosters = 2
	}
	if cfg.Horizon <= 0 {
		cfg.Horizon = 160
	}
	pol, err := sched.PolicyByName(cfg.Policy)
	if err != nil {
		return nil, fmt.Errorf("adversary: %w", err)
	}
	slots := cfg.Workers
	if cfg.Strategy == PCT {
		slots += cfg.Boosters
	}
	procs := 1
	if d.Family != registry.FamilyUni {
		procs = 2
	}
	sim := sched.Acquire(sched.Config{
		Processors: procs, Seed: cfg.Seed, MemWords: 1 << 16,
		EnableTrace: cfg.Trace, MaxSteps: 4_000_000, Policy: pol,
	})
	icfg := d.StressConfig(slots)
	// Black box: the white-box checkers stay off; only the recorded
	// history is judged.
	icfg.Check = false
	inst, err := registry.Build(sim, d.Name, icfg)
	if err != nil {
		sched.Release(sim)
		return nil, err
	}
	rec, wrapped := linz.Record(inst)

	// One dedicated rng for schedule construction, salted by strategy so
	// uniform and pct runs of one seed differ.
	rng := rand.New(rand.NewSource(cfg.Seed*0x9e3779b9 + int64(cfg.Strategy)))
	var cast registry.Cast
	switch cfg.Strategy {
	case Uniform:
		cast = uniformCast(d, icfg, cfg, procs, rng)
	case PCT:
		cast = pctCast(d, icfg, cfg, procs, rng)
	default:
		sched.Release(sim)
		return nil, fmt.Errorf("adversary: unknown strategy %v", cfg.Strategy)
	}
	cast.Spawn(sim, wrapped)
	if err := sim.Run(); err != nil {
		// Run has returned, so every coroutine has unwound and the Sim
		// can be pooled even on a failed schedule.
		sched.Release(sim)
		return nil, fmt.Errorf("adversary: %s seed=%d strategy=%s: %w", d.Name, cfg.Seed, cfg.Strategy, err)
	}
	run := &Run{Sim: sim, History: rec.History(), Spec: linz.SpecFor(d, icfg), Desc: d}
	if pol != sched.DefaultPolicy() {
		run.Policy = pol.Name()
	}
	return run, nil
}

// uniformCast releases every worker at an independent uniform slice
// count. Core families get distinct random priorities (so a later release
// preempts mid-operation); baselines run at equal priority.
func uniformCast(d *registry.Descriptor, icfg registry.Config, cfg Config, procs int, rng *rand.Rand) registry.Cast {
	perm := rng.Perm(cfg.Workers)
	cast := make(registry.Cast, cfg.Workers)
	for i := range cast {
		prio := sched.Priority(1 + perm[i])
		if d.Family == registry.FamilyBaseline {
			prio = 1
		}
		cpu := 0
		if procs > 1 {
			cpu = rng.Intn(procs)
		}
		cast[i] = registry.Job{
			Name: fmt.Sprintf("w%d", i), CPU: cpu, Prio: prio, Slot: i,
			Release: arrival.Release{AfterSlices: rng.Int63n(cfg.Horizon)},
			Ops:     d.Ops(icfg, cfg.Seed, i, cfg.Ops),
		}
	}
	return cast
}

// pctCast starts the base workers together under a random priority
// permutation and releases one strictly-higher-priority booster per change
// point. For baselines every priority collapses to 1 (see the package
// comment), degrading the boosters to staggered extra workers.
func pctCast(d *registry.Descriptor, icfg registry.Config, cfg Config, procs int, rng *rand.Rand) registry.Cast {
	base := d.Family != registry.FamilyBaseline
	perm := rng.Perm(cfg.Workers)
	cast := make(registry.Cast, 0, cfg.Workers+cfg.Boosters)
	for i := 0; i < cfg.Workers; i++ {
		prio := sched.Priority(1)
		if base {
			prio = sched.Priority(1 + perm[i])
		}
		cast = append(cast, registry.Job{
			Name: fmt.Sprintf("w%d", i), CPU: i % procs, Prio: prio, Slot: i,
			Release: arrival.Now, Ops: d.Ops(icfg, cfg.Seed, i, cfg.Ops),
		})
	}
	for j := 0; j < cfg.Boosters; j++ {
		prio := sched.Priority(1)
		if base {
			prio = sched.Priority(1 + cfg.Workers + j)
		}
		cpu := 0
		if procs > 1 {
			cpu = rng.Intn(procs)
		}
		slot := cfg.Workers + j
		cast = append(cast, registry.Job{
			Name: fmt.Sprintf("b%d", j), CPU: cpu, Prio: prio, Slot: slot,
			Release: arrival.Release{AfterSlices: rng.Int63n(cfg.Horizon)},
			Ops:     d.Ops(icfg, cfg.Seed, slot, boosterOps),
		})
	}
	return cast
}
