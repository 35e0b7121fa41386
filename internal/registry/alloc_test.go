package registry

import (
	"testing"

	"repro/internal/explore"
)

// sweepAllocsCap bounds the allocations one swept schedule may perform
// (instance Build + checker state; the sweeper itself contributes only the
// cast's respawn: one body closure per job plus the returned proc slice). The burn-down that introduced the sweeper brought
// the real figures to 19–87 allocs/schedule (object-dependent; unimwcas's
// universal-construction Build is the ceiling) from several hundred; the
// cap has headroom for noise but fails long before the old per-schedule
// construction pattern — a metrics.Report, op scripts, or a fresh Sim per
// schedule — can sneak back in.
const sweepAllocsCap = 100

// TestSweepAllocsPerSchedule pins the per-schedule allocation count of the
// sweep driver for every core object, in both scheduler modes: op scripts,
// the cast, signature computation and the pooled Sim are all per-sweep
// costs, so a schedule pays only for its object instance and its spawn.
func TestSweepAllocsPerSchedule(t *testing.T) {
	if testing.Short() {
		t.Skip("allocation counting is exact but slow across all objects")
	}
	vecs, err := explore.Vectors(exploreConfig(SweepConfig{Max: 16}))
	if err != nil {
		t.Fatal(err)
	}
	for _, name := range CoreNames() {
		t.Run(name, func(t *testing.T) {
			d := Lookup0(name)
			cfg := SweepConfig{Max: 16, Observe: func(rel []int64, sig uint64) {}}
			sw, err := d.newSweeper(cfg)
			if err != nil {
				t.Fatal(err)
			}
			defer sw.close()
			i := 0
			avg := testing.AllocsPerRun(len(vecs)*2, func() {
				if _, err := sw.runOne(vecs[i%len(vecs)]); err != nil {
					t.Fatal(err)
				}
				i++
			})
			t.Logf("%s: %.1f allocs/schedule", name, avg)
			if avg > sweepAllocsCap {
				t.Errorf("%s: %.1f allocs per swept schedule, cap %d — per-schedule work crept back into the sweep loop",
					name, avg, sweepAllocsCap)
			}
		})
	}
}
