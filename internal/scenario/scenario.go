// Package scenario builds small, named, reproducible runs of the paper's
// objects for inspection tooling. Where internal/workload drives throughput
// experiments, a scenario is the opposite: a handful of processes with a
// deterministic preemption pattern, sized so a human can read the resulting
// trace. cmd/wftrace loads one by (object, seed, pattern) and renders its
// span model; the tests in this package pin down that the same triple
// always yields byte-identical traces.
//
// The object set, instance construction and op scripts all come from
// internal/registry: every core descriptor carries a ScenarioSpec, so a new
// object shows up here (and in wftrace) by registering a descriptor. The
// preemption patterns are arrival traces (internal/arrival) and the
// dispatch discipline is a scheduling policy (sched.Policy), both named in
// the Config — the historical trio of patterns and the strict-priority
// discipline remain the defaults.
package scenario

import (
	"fmt"
	"slices"

	"repro/internal/arrival"
	"repro/internal/helping"
	"repro/internal/prim"
	"repro/internal/registry"
	"repro/internal/sched"
)

// Config selects a scenario.
type Config struct {
	// Object is one of Objects() — any core object in the registry.
	Object string
	// Seed seeds the simulation.
	Seed int64
	// Pattern is the legacy name for Arrival (the scenario tooling's
	// original trio of preemption patterns); empty means "stagger".
	Pattern string
	// Arrival selects the arrival trace shaping the adversary/burst
	// releases — any of arrival.Names(). When set it takes precedence
	// over Pattern.
	Arrival string
	// Policy names the scheduling discipline (sched.PolicyNames());
	// empty means the paper's strict-priority model.
	Policy string
	// Trace enables event recording; cmd/wftrace always sets it.
	Trace bool
	// CC and Mode configure the multiprocessor helping machinery (zero
	// values mean the object defaults: Native CCAS, cyclic helping); the
	// wfbench full-matrix sweep varies them.
	CC   prim.Impl
	Mode helping.Mode
}

// Patterns returns the legacy preemption pattern names, sorted. The full
// arrival-trace template set is arrival.Names().
func Patterns() []string {
	return arrival.Legacy()
}

// Objects returns the object names scenarios exist for: every core object
// registered in internal/registry.
func Objects() []string {
	return registry.CoreNames()
}

// Run builds and executes the scenario, returning the completed simulation
// (trace, report and final memory are read off it).
func Run(cfg Config) (*sched.Sim, error) {
	trc, err := arrival.ByName(traceName(cfg))
	if err != nil {
		return nil, fmt.Errorf("scenario: %w", err)
	}
	pol, err := sched.PolicyByName(cfg.Policy)
	if err != nil {
		return nil, fmt.Errorf("scenario: %w", err)
	}
	d, err := registry.Lookup(cfg.Object)
	if err != nil || d.Family == registry.FamilyBaseline {
		return nil, fmt.Errorf("scenario: unknown object %q (have %v)", cfg.Object, Objects())
	}
	s, err := build(d, cfg, trc, pol)
	if err != nil {
		return nil, err
	}
	if err := s.Run(); err != nil {
		return nil, fmt.Errorf("scenario %s/%s: %w", cfg.Object, trc.Name(), err)
	}
	return s, nil
}

func traceName(cfg Config) string {
	if cfg.Arrival != "" {
		return cfg.Arrival
	}
	if cfg.Pattern == "" {
		return "stagger"
	}
	return cfg.Pattern
}

// build instantiates the descriptor's ScenarioSpec inside a fresh simulation
// and spawns its cast: uniprocessor objects get the Figure 2 trio (victim
// plus two adversaries, one script each), multiprocessor objects one worker
// per processor plus trace-released compute bursts.
func build(d *registry.Descriptor, cfg Config, trc arrival.Trace, pol sched.Policy) (*sched.Sim, error) {
	spec := d.Scenario
	// Acquire rather than New: sweep drivers (wfbench -exp sweep) run the
	// full matrix of scenarios and release each Sim after reading its
	// report, so simulator memory is reused across cells. One-shot callers
	// simply never release, which degrades to New.
	var s *sched.Sim
	if d.Family == registry.FamilyUni {
		s = sched.Acquire(sched.Config{Processors: 1, Seed: cfg.Seed, MemWords: 1 << 15, EnableTrace: cfg.Trace, Policy: pol})
	} else {
		s = sched.Acquire(sched.Config{Processors: 2, Seed: cfg.Seed, MemWords: 1 << 16, EnableTrace: cfg.Trace, Policy: pol})
	}
	inst, err := registry.Build(s, d.Name, registry.Config{
		Procs:    len(spec.Scripts),
		Capacity: spec.Capacity,
		Buckets:  spec.Buckets,
		Words:    spec.Words,
		Width:    spec.Width,
		Stride:   spec.Stride,
		SeedKeys: spec.SeedKeys,
		CC:       cfg.CC,
		Mode:     cfg.Mode,
	})
	if err != nil {
		return nil, err
	}
	cast(d, trc.Releases(2, cfg.Seed)).Spawn(s, inst)
	return s, nil
}

// burstLen is the compute time of a multiprocessor scenario's burst.
const burstLen = 60

// cast declares the scenario's jobs. Uniprocessor objects get the Figure 2
// trio p/q/r: the victim released at time zero and two adversaries released
// at the trace's two points. Multiprocessor objects get workers w0/w1 plus,
// for traces that preempt, a high-priority compute burst per processor
// (delaying, not touching the object) released at the trace's two points; a
// preempted worker's announced operation is what the other processor's
// helping ring picks up. Immediate releases spawn no burst (the "none"
// control case: nothing ever preempts the workers).
func cast(d *registry.Descriptor, rel []arrival.Release) registry.Cast {
	scripts := d.Scenario.Scripts
	if d.Family == registry.FamilyUni {
		return d.Cast([]string{"p", "q", "r"}, scripts, []arrival.Release{arrival.Now, rel[0], rel[1]})
	}
	c := d.Cast([]string{"w0", "w1", "hi0", "hi1"}, [][]registry.Op{scripts[0], scripts[1], nil, nil},
		[]arrival.Release{arrival.Now, arrival.Now, rel[0], rel[1]})
	for i := 2; i < len(c); i++ {
		c[i].Slot, c[i].Delay = -1, burstLen
	}
	return slices.DeleteFunc(c, func(j registry.Job) bool { return j.Delay > 0 && j.Release.Immediate() })
}
