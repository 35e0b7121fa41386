package registry

// The registry's schedule-exploration driver: one release-point sweep that
// works for every core descriptor, replacing cmd/wfcheck's hand-written
// per-object suites. Uniprocessor objects get the Figure 2 cast (low-priority
// victim, two higher-priority adversaries released at swept slice counts on
// one CPU); multiprocessor objects get one worker per processor plus two
// swept high-priority adversaries. Operations come from the descriptor's
// deterministic generator and every run is linearizability-checked
// (Config.Check).
//
// The driver is built to amortize: everything a schedule does not depend on
// — op scripts, the policy and arrival trace, the cast, and the pooled
// simulation itself — is constructed once per sweep and reused across every
// schedule (see sweeper). Per schedule only the object instance is rebuilt,
// the release vector patched in and the cast respawned, so a schedule costs
// little more than its simulated slices.

import (
	"fmt"
	"math/rand"
	"os"

	"repro/internal/arrival"
	"repro/internal/cover"
	"repro/internal/explore"
	"repro/internal/sched"
	"repro/internal/tracex"
)

// SweepConfig configures one object's release-point sweep.
type SweepConfig struct {
	// Max is the largest release point swept (wfcheck -max).
	Max int64
	// KeepGoing explores past failures and aggregates every failing
	// vector into an explore.Failures error.
	KeepGoing bool
	// Policy names the scheduling discipline every schedule runs under
	// (sched.PolicyNames()); empty means the paper's strict-priority
	// model. The swept release vector is policy-independent — the same
	// vectors are enumerated, only dispatch order changes.
	Policy string
	// Arrival names an arrival trace (arrival.Names()) shaping the BASE
	// workers' releases — the victim on uniprocessor sweeps, both workers
	// on multiprocessor ones. The adversaries always keep the swept
	// release vector (that enumeration is the sweep). Empty keeps the
	// legacy immediate release.
	Arrival string
	// Seed seeds the deterministic op-script generator and the base
	// arrival trace. Zero means 1, the historical value, so default
	// sweeps (and their committed coverage goldens) are unchanged.
	Seed int64
	// Prune enables quiescence-equivalence pruning (explore.Config.Prune):
	// schedules provably identical to an already-checked one are skipped.
	// Off by default; disabled pruning enumerates exactly the same
	// schedules in the same order.
	Prune bool
	// Trace records every run and dumps the first failing schedule's span
	// model to TracePath.
	Trace bool
	// TracePath defaults to "wfcheck_fail.trace.json".
	TracePath string
	// Observe, when set, receives every successfully checked schedule's
	// release vector and behavioral signature, in enumeration order — the
	// coverage-accumulation hook. The signature is computed incrementally
	// from the simulator's own counters (cover.SimSig), not by building a
	// metrics.Report per schedule, so Observe is cheap enough to leave on
	// for full sweeps. The rel slice is reused across calls; copy it if
	// retained.
	Observe func(rel []int64, sig uint64)
}

// sweepOps sizes the generated scripts: victims and workers run three
// operations, adversaries two.
const (
	sweepVictimOps = 3
	sweepAdvOps    = 2
	sweepSeed      = 1
	// sweepGap is the Gap of the swept release enumeration and the window
	// swarm sampling draws the second release offset from.
	sweepGap = 8
)

// StressConfig sizes a checked instance for schedule stressing: the
// release-point sweeps here and the randomized adversary runs
// (internal/linz/adversary) both build instances from it, so one config
// shape covers every core object and baseline.
func (d *Descriptor) StressConfig(slots int) Config {
	// The spin-lock list and the universal construction have no
	// white-box checker, and their constructors reject Check.
	cfg := Config{Procs: slots, Capacity: 48, Buckets: 4, Check: d.Name != "locklist" && d.Name != "herlihy"}
	switch d.Model {
	case ModelSorted:
		// Two seeded keys inside the generator's key range, so deletes
		// and colliding inserts both happen. The herlihy universal
		// construction starts empty (its constructor rejects seeding).
		if d.Name != "herlihy" {
			cfg.SeedKeys = []uint64{5, 9}
		}
	case ModelWords:
		cfg.Words = 3
		cfg.Width = 3
		cfg.Initial = []uint64{12, 22, 8}
	}
	return cfg
}

// exploreConfig is the release-point enumeration Sweep drives, shared
// with SweepSpace so the progress meter's denominator matches exactly.
func exploreConfig(cfg SweepConfig) explore.Config {
	return explore.Config{
		Adversaries: 2, Max: cfg.Max, Stride: 2, Gap: sweepGap,
		KeepGoing: cfg.KeepGoing, Prune: cfg.Prune,
	}
}

// SweepSpace returns the number of schedules Sweep would run for cfg
// without executing any (explore.Count over the same enumeration, pruning
// not deducted).
func (d *Descriptor) SweepSpace(cfg SweepConfig) (int, error) {
	if d.Family == FamilyBaseline {
		return 0, fmt.Errorf("registry: %s is a baseline; sweeps cover the core objects", d.Name)
	}
	cfg.Prune = false
	return explore.Count(exploreConfig(cfg))
}

// sweeper carries the per-sweep state shared by every schedule: the pooled
// simulation, the hoisted op scripts and the cast. A schedule only rebuilds
// the object instance, patches the adversaries' release points and respawns
// the cast, so per-schedule allocation stays near the instance's own
// footprint (pinned by TestSweepAllocsPerSchedule).
type sweeper struct {
	d    *Descriptor
	cfg  SweepConfig
	icfg Config
	scfg sched.Config
	sim  *sched.Sim
	// cast is the schedule's job list; its last two jobs are the
	// adversaries, whose releases carry the swept vector.
	cast Cast
}

// newSweeper resolves the policy and arrival trace, generates the op
// scripts, and declares the cast. It acquires a pooled simulation; the
// caller must call sw.close.
func (d *Descriptor) newSweeper(cfg SweepConfig) (*sweeper, error) {
	if d.Family == FamilyBaseline {
		return nil, fmt.Errorf("registry: %s is a baseline; sweeps cover the core objects", d.Name)
	}
	pol, err := sched.PolicyByName(cfg.Policy)
	if err != nil {
		return nil, fmt.Errorf("registry: %w", err)
	}
	seed := cfg.Seed
	if seed == 0 {
		seed = sweepSeed
	}
	// The base workers release immediately unless a named arrival trace
	// reshapes them; the adversaries' releases are patched per schedule.
	base := []arrival.Release{arrival.Now, arrival.Now}
	if cfg.Arrival != "" {
		trc, err := arrival.ByName(cfg.Arrival)
		if err != nil {
			return nil, fmt.Errorf("registry: %w", err)
		}
		base = trc.Releases(2, seed)
	}
	// The generated scripts depend only on the descriptor, the stress
	// config, and the slot — not on the release vector — so generate them
	// once for the whole sweep instead of reseeding a generator in every
	// schedule.
	icfg := d.StressConfig(4)
	names := []string{"victim", "adv", "adv2"}
	rel := []arrival.Release{base[0], {}, {}}
	procs, memWords := 1, 1<<15
	if d.Family == FamilyMulti {
		names = []string{"w0", "w1", "adv", "adv2"}
		rel = []arrival.Release{base[0], base[1], {}, {}}
		procs, memWords = 2, 1<<16
	}
	scripts := make([][]Op, len(names))
	for slot := range scripts {
		n := sweepVictimOps
		if slot >= len(names)-2 {
			n = sweepAdvOps
		}
		scripts[slot] = d.Ops(icfg, seed, slot, n)
	}
	sw := &sweeper{d: d, cfg: cfg, icfg: icfg, cast: d.Cast(names, scripts, rel)}
	sw.scfg = sched.Config{
		Processors: procs, Seed: seed, MemWords: memWords,
		EnableTrace: cfg.Trace, Policy: pol,
	}
	// One pooled simulation serves the whole sweep; runOne resets it per
	// schedule, reusing its memory words, procs and bookkeeping.
	sw.sim = sched.Acquire(sw.scfg)
	return sw, nil
}

// close returns the sweeper's simulation to the pool.
func (sw *sweeper) close() { sched.Release(sw.sim) }

// runOne executes and checks one schedule for the given release vector,
// reporting the quiescent-release info the pruner needs.
func (sw *sweeper) runOne(rel []int64) (explore.RunInfo, error) {
	info := explore.RunInfo{QuiescentFrom: len(rel)}
	s := sw.sim.Reset(sw.scfg)
	inst, err := Build(s, sw.d.Name, sw.icfg)
	if err != nil {
		return info, err
	}
	adv := len(sw.cast) - 2
	sw.cast[adv].Release.AfterSlices = rel[0]
	sw.cast[adv+1].Release.AfterSlices = rel[1]
	procs := sw.cast.Spawn(s, inst)
	if err := s.Run(); err != nil {
		return info, dumpFailure(s, sw.cfg, fmt.Errorf("%s rel=%v: %w", sw.d.Name, rel, err))
	}
	if err := inst.CheckErr(); err != nil {
		return info, dumpFailure(s, sw.cfg, fmt.Errorf("%s rel=%v: %w", sw.d.Name, rel, err))
	}
	for i, p := range procs[adv:] {
		if p.QuiescentRelease() {
			info.QuiescentFrom = i
			break
		}
	}
	if sw.cfg.Observe != nil {
		// Keyed by the arrival trace; the policy is folded by SimSig
		// itself (empty on the default, preserving historical
		// signatures), exactly as ReportSig does on a report.
		sw.cfg.Observe(rel, cover.SimSig(s, sw.d.Name, sw.cfg.Arrival))
	}
	return info, nil
}

// Sweep explores release-point schedules of the object and checks every one,
// returning the number of schedules executed.
func (d *Descriptor) Sweep(cfg SweepConfig) (int, error) {
	info, err := d.SweepStats(cfg)
	return info.Explored, err
}

// SweepStats is Sweep reporting both executed and pruned schedule counts
// (the latter nonzero only under cfg.Prune).
func (d *Descriptor) SweepStats(cfg SweepConfig) (explore.SweepInfo, error) {
	sw, err := d.newSweeper(cfg)
	if err != nil {
		return explore.SweepInfo{}, err
	}
	defer sw.close()
	return explore.SweepPruned(exploreConfig(cfg), sw.runOne)
}

// SwarmConfig configures one object's stratum of a swarm run: Schedules
// release vectors sampled uniformly from the sweep's (release, gap) space
// under one (policy, arrival) pair. Everything is derived deterministically
// from Seed, so a stratum's outcome — failures, coverage signatures, counts
// — is a pure function of its config; the swarm driver (cmd/wfcheck
// -swarm) exploits that to merge per-stratum outputs byte-identically at
// any parallelism.
type SwarmConfig struct {
	// Schedules is the number of sampled schedules to run.
	Schedules int
	// Seed drives the release-vector sampler and the op generator.
	Seed int64
	// Max bounds the first release point, as SweepConfig.Max.
	Max int64
	// Policy and Arrival name the stratum's discipline and arrival trace.
	Policy  string
	Arrival string
	// MaxFailures bounds collected failures (default
	// explore.DefaultMaxFailures); the stratum keeps sampling past
	// failures regardless, so counts stay budget-exact.
	MaxFailures int
	// Observe is the coverage hook, as SweepConfig.Observe.
	Observe func(rel []int64, sig uint64)
}

// Swarm runs one swarm stratum: cfg.Schedules release vectors sampled from
// the sweep space, each checked. It returns the number of schedules run and
// an explore.Failures error when any failed.
func (d *Descriptor) Swarm(cfg SwarmConfig) (int, error) {
	if cfg.Schedules < 1 {
		return 0, nil
	}
	if cfg.Max < 2 {
		return 0, fmt.Errorf("registry: swarm Max must be at least 2")
	}
	maxFail := cfg.MaxFailures
	if maxFail < 1 {
		maxFail = explore.DefaultMaxFailures
	}
	sw, err := d.newSweeper(SweepConfig{
		Max: cfg.Max, Policy: cfg.Policy, Arrival: cfg.Arrival,
		Seed: cfg.Seed, Observe: cfg.Observe,
	})
	if err != nil {
		return 0, err
	}
	defer sw.close()
	// The sampler must not share state with anything schedule-dependent:
	// vector i is the same for a given (object, policy, arrival, seed)
	// no matter what the schedules before it did.
	rng := rand.New(rand.NewSource(cfg.Seed))
	rel := make([]int64, 2)
	var failures explore.Failures
	for i := 0; i < cfg.Schedules; i++ {
		rel[0] = rng.Int63n(cfg.Max)
		rel[1] = rel[0] + 1 + rng.Int63n(sweepGap)
		if _, err := sw.runOne(rel); err != nil {
			if len(failures) < maxFail {
				failures = append(failures, explore.Failure{
					Vector: append([]int64(nil), rel...), Err: err,
				})
			}
		}
	}
	if len(failures) > 0 {
		return cfg.Schedules, failures
	}
	return cfg.Schedules, nil
}

// dumpFailure, under Trace, writes the failing run's span model and points
// the error at it.
func dumpFailure(s *sched.Sim, cfg SweepConfig, err error) error {
	if !cfg.Trace || err == nil || s.Trace() == nil {
		return err
	}
	b, perr := tracex.Build(s.Trace()).Perfetto()
	if perr != nil {
		return err
	}
	path := cfg.TracePath
	if path == "" {
		path = "wfcheck_fail.trace.json"
	}
	if werr := os.WriteFile(path, b, 0o644); werr != nil {
		return err
	}
	return fmt.Errorf("%w (span trace written to %s)", err, path)
}
