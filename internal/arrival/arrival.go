// Package arrival defines arrival traces: named, deterministic release
// schedules for simulated jobs. A Trace maps (job index, seed) to a
// Release — either a slice-triggered release ("after the system has
// executed k slices", the deterministic preemption handle the sweeps are
// built on) or a time-triggered one ("at virtual time t", the open-loop
// shape real load has).
//
// The legacy scenario patterns (stagger/burst/none) are traces here, so
// internal/scenario, registry sweeps, and the CLIs all draw from one
// registry; the new templates (bursty open-loop, rate-driven multi-tenant)
// ride the same seam. Everything is a pure function of (n, seed): two
// drivers asking for the same trace always spawn identical release points.
//
// The package is a leaf (stdlib only) so both internal/sched users and
// internal/registry can import it without cycles.
package arrival

import (
	"fmt"
	"math/rand"
	"sort"
)

// Release is one job's release point. AfterSlices >= 0 releases the job
// after that many globally executed slices (sched.JobSpec.AfterSlices);
// otherwise the job is released at virtual time At on its processor
// (sched.JobSpec.At). The zero-ish Release{AfterSlices: -1} is an
// immediate time-zero release.
type Release struct {
	AfterSlices int64
	At          int64
}

// Now is the immediate time-zero release.
var Now = Release{AfterSlices: -1}

// Immediate reports whether the release is a time-zero release.
func (r Release) Immediate() bool { return r.AfterSlices < 0 && r.At == 0 }

// Trace is a named arrival schedule. Releases returns the release points
// for n staggered jobs; it must be deterministic in (n, seed) and
// index-monotone enough to be readable in traces (later indices never
// release before earlier ones under the built-in templates).
type Trace interface {
	Name() string
	Releases(n int, seed int64) []Release
}

// stagger reproduces the Figure 2 shape: job i is released after 15+13i
// executed slices, so each arrival lands mid-operation of the previous
// job's work (the legacy "stagger" pattern's {15, 28} for two jobs).
type stagger struct{}

func (stagger) Name() string { return "stagger" }
func (stagger) Releases(n int, seed int64) []Release {
	out := make([]Release, n)
	for i := range out {
		out[i] = Release{AfterSlices: 15 + 13*int64(i)}
	}
	return out
}

// burst releases everything almost together, early: job i after 6+2i
// slices (the legacy "burst" pattern's {6, 8}).
type burst struct{}

func (burst) Name() string { return "burst" }
func (burst) Releases(n int, seed int64) []Release {
	out := make([]Release, n)
	for i := range out {
		out[i] = Release{AfterSlices: 6 + 2*int64(i)}
	}
	return out
}

// none releases everything at time zero: the policy order serializes the
// jobs and no mid-operation preemption occurs (the control case).
type none struct{}

func (none) Name() string { return "none" }
func (none) Releases(n int, seed int64) []Release {
	out := make([]Release, n)
	for i := range out {
		out[i] = Now
	}
	return out
}

// burstyEpochGap and burstySize shape the bursty trace: pairs of jobs
// arrive together every epoch, with a small seeded jitter per job.
const (
	burstyStart    = 20
	burstyEpochGap = 45
	burstySize     = 2
	burstyJitter   = 6
)

// bursty is an open-loop bursty trace: jobs arrive in pairs at virtual
// times 20, 65, 110, ... with an independent seeded jitter of [0, 6) per
// job. Time-triggered on purpose — open-loop load does not wait for the
// system, and slice triggers cannot fire while nothing runs.
type bursty struct{}

func (bursty) Name() string { return "bursty" }
func (bursty) Releases(n int, seed int64) []Release {
	rng := rand.New(rand.NewSource(seed*0x51ed2701 + 11))
	out := make([]Release, n)
	for i := range out {
		base := int64(burstyStart + burstyEpochGap*(i/burstySize))
		out[i] = Release{AfterSlices: -1, At: base + rng.Int63n(burstyJitter)}
	}
	return out
}

// poissonMeanGap is the mean inter-arrival gap of the poisson trace.
const poissonMeanGap = 35.0

// poisson is an open-loop Poisson process: seeded exponential
// inter-arrival gaps with mean 35 virtual-time units, the textbook
// stochastic model of independent request traffic (and the arrival model
// of the Alistarh/Censor-Hillel/Shavit practically-wait-free analysis).
// Time-triggered like bursty; a pure function of (n, seed).
type poisson struct{}

func (poisson) Name() string { return "poisson" }
func (poisson) Releases(n int, seed int64) []Release {
	rng := rand.New(rand.NewSource(seed*0x9e3779b9 + 7))
	out := make([]Release, n)
	var at float64
	for i := range out {
		at += rng.ExpFloat64() * poissonMeanGap
		out[i] = Release{AfterSlices: -1, At: 1 + int64(at)}
	}
	return out
}

// ratePeriods are the per-tenant inter-arrival periods of the rate trace.
var ratePeriods = [...]int64{60, 105}

// rate is a rate-driven multi-tenant mix: jobs alternate between two
// tenants, tenant t releasing its k-th job at virtual time period_t*(k+1)
// (periods 60 and 105). A closed-form periodic open-loop schedule — the
// steady-state shape of a request-serving system, no randomness at all.
type rate struct{}

func (rate) Name() string { return "rate" }
func (rate) Releases(n int, seed int64) []Release {
	out := make([]Release, n)
	for i := range out {
		tenant := i % len(ratePeriods)
		k := int64(i/len(ratePeriods)) + 1
		out[i] = Release{AfterSlices: -1, At: ratePeriods[tenant] * k}
	}
	return out
}

// traces is the template registry, keyed by Name.
var traces = map[string]Trace{}

// legacy names the traces that predate this package as scenario patterns;
// scenario.Patterns() keeps returning exactly this set.
var legacy = []string{"burst", "none", "stagger"}

func init() {
	for _, t := range []Trace{stagger{}, burst{}, none{}, bursty{}, rate{}, poisson{}} {
		traces[t.Name()] = t
	}
}

// ByName resolves a trace template; "" means "stagger" (the historical
// scenario default).
func ByName(name string) (Trace, error) {
	if name == "" {
		name = "stagger"
	}
	if t, ok := traces[name]; ok {
		return t, nil
	}
	return nil, fmt.Errorf("arrival: unknown trace %q (have %v)", name, Names())
}

// Names returns every template name, sorted.
func Names() []string {
	out := make([]string, 0, len(traces))
	for name := range traces {
		out = append(out, name)
	}
	sort.Strings(out)
	return out
}

// Legacy returns the original scenario pattern names (sorted), a subset of
// Names. The wfbench sweep matrix and the scenario tests iterate this set,
// so its membership is part of the golden-output contract.
func Legacy() []string { return append([]string(nil), legacy...) }
