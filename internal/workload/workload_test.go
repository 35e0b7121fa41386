package workload

import (
	"strings"
	"testing"

	"repro/internal/sched"
)

// TestAllKindsRun exercises every list kind through the harness; the
// lock-based list is expected to livelock under preemption (priority
// inversion), every other kind must finish.
func TestAllKindsRun(t *testing.T) {
	for _, k := range Kinds() {
		k := k
		t.Run(string(k), func(t *testing.T) {
			p := 4
			if k == WaitFreeUni {
				p = 1
			}
			res, err := RunList(ListConfig{
				Kind: k, Processors: p, BurstsPerCPU: 2, BurstOps: 10,
				TotalOps: 400, ListSize: 50, Seed: 1, Check: k != LockBased,
			})
			if err != nil {
				t.Fatal(err)
			}
			if k == LockBased {
				if !res.Livelocked {
					t.Error("lock-based list did not livelock under priority preemption")
				}
				return
			}
			if res.Livelocked {
				t.Error("run livelocked")
			}
			if res.Ops != 400 {
				t.Errorf("ops = %d, want 400", res.Ops)
			}
			if res.Final <= 0 {
				t.Errorf("final list empty (size %d)", res.Final)
			}
		})
	}
}

// TestCheckedRunsAcrossSeeds runs the checked workload for several seeds on
// the two headline kinds — an end-to-end linearizability test of the whole
// §3.4 pipeline.
func TestCheckedRunsAcrossSeeds(t *testing.T) {
	for seed := int64(1); seed <= 5; seed++ {
		for _, k := range []Kind{WaitFree, LockFreeGC} {
			res, err := RunList(ListConfig{
				Kind: k, Processors: 3, BurstsPerCPU: 3, BurstOps: 5,
				TotalOps: 300, ListSize: 40, Seed: seed, Check: true,
			})
			if err != nil {
				t.Fatalf("seed %d %s: %v", seed, k, err)
			}
			if res.Livelocked {
				t.Fatalf("seed %d %s: livelocked", seed, k)
			}
		}
	}
}

// TestSec34RatioShape is the headline §3.4 reproduction at reduced scale:
// the wait-free list's total time must be within the paper's reported band —
// higher than the lock-free list, but by a bounded factor (the paper:
// "typically 1.5 to 2 times higher", our harness: up to ~2.3 under heavy
// preemption).
func TestSec34RatioShape(t *testing.T) {
	mk := map[Kind]int64{}
	for _, k := range []Kind{WaitFree, LockFreeGC} {
		res, err := RunList(ListConfig{
			Kind: k, Processors: 4, BurstsPerCPU: 4, BurstOps: 25,
			TotalOps: 3000, ListSize: 200, Seed: 11,
		})
		if err != nil {
			t.Fatal(err)
		}
		mk[k] = res.Makespan
	}
	ratio := float64(mk[WaitFree]) / float64(mk[LockFreeGC])
	if ratio < 1.2 || ratio > 3.0 {
		t.Errorf("wait-free/lock-free total-time ratio = %.2f, want within the paper's regime (~1.5-2, harness band 1.2-3.0)", ratio)
	}
}

// TestSec34RetriesShape: the lock-free list exhibits substantial worst-case
// retries under contention, while wait-free operations never retry.
func TestSec34RetriesShape(t *testing.T) {
	res, err := RunList(ListConfig{
		Kind: LockFreeGC, Processors: 4, BurstsPerCPU: 4, BurstOps: 25,
		TotalOps: 3000, ListSize: 200, Seed: 11,
	})
	if err != nil {
		t.Fatal(err)
	}
	if res.WorstRetries < 5 {
		t.Errorf("lock-free worst retries = %d, want the paper's contention regime (>= 5)", res.WorstRetries)
	}
	wf, err := RunList(ListConfig{
		Kind: WaitFree, Processors: 4, BurstsPerCPU: 4, BurstOps: 25,
		TotalOps: 3000, ListSize: 200, Seed: 11,
	})
	if err != nil {
		t.Fatal(err)
	}
	if wf.Retries != 0 {
		t.Errorf("wait-free list reported %d retries; wait-free operations never retry", wf.Retries)
	}
}

// TestWaitFreeWorstCaseBound: with brief preemptions (single-operation
// bursts, the regime of the paper's claim), a wait-free operation's response
// time stays within a small factor of an interference-free operation —
// the paper reports "at most eight times" on four processors (2·P·T with
// both traversals). We allow headroom for burst nesting.
func TestWaitFreeWorstCaseBound(t *testing.T) {
	res, err := RunList(ListConfig{
		Kind: WaitFree, Processors: 4, BurstsPerCPU: 3, BurstOps: 1,
		TotalOps: 2000, ListSize: 200, Seed: 7,
	})
	if err != nil {
		t.Fatal(err)
	}
	ratio := float64(res.WorstOp) / float64(res.BaseOp)
	if ratio > 16 {
		t.Errorf("worst/base = %.1f, want <= 16 (paper: <= 8 on P=4 plus preemption headroom)", ratio)
	}
}

// TestConfigValidation covers the error paths.
func TestConfigValidation(t *testing.T) {
	if _, err := RunList(ListConfig{Kind: WaitFree, Processors: 0}); err == nil {
		t.Error("zero processors accepted")
	}
	if _, err := RunList(ListConfig{Kind: WaitFreeUni, Processors: 2, TotalOps: 10, ListSize: 5}); err == nil {
		t.Error("uniprocessor list on 2 processors accepted")
	}
	if _, err := RunList(ListConfig{Kind: Kind("bogus"), Processors: 1, TotalOps: 10, ListSize: 5}); err == nil {
		t.Error("unknown kind accepted")
	}
	if _, err := RunList(ListConfig{Kind: WaitFree, Processors: 2, BurstsPerCPU: 10, BurstOps: 100, TotalOps: 10, ListSize: 5}); err == nil {
		t.Error("burst ops exceeding total accepted")
	}
	// Configs that used to panic inside a job (an empty key range) or
	// misreport themselves (a negative total read as a burst overflow)
	// come back as plain errors.
	for _, c := range []struct {
		cfg  ListConfig
		want string
	}{
		{ListConfig{Kind: WaitFree, Processors: 1, TotalOps: 10}, "list size 0"},
		{ListConfig{Kind: WaitFree, Processors: 1, TotalOps: 0}, "list size 0"},
		{ListConfig{Kind: WaitFree, Processors: 1, TotalOps: -5, ListSize: 5}, "total ops -5 is negative"},
	} {
		_, err := RunList(c.cfg)
		if err == nil || !strings.Contains(err.Error(), c.want) || strings.Contains(err.Error(), "goroutine") {
			t.Errorf("%+v: err = %v, want a plain error naming %q", c.cfg, err, c.want)
		}
	}
}

// TestRegressionDuplicateRace pins the two historical corruption scenarios:
// a same-round helper misreporting a completed insert as a duplicate, and an
// insert owner misreading its recycled node. Both manifested as list cycles
// under these exact configurations.
func TestRegressionDuplicateRace(t *testing.T) {
	cases := []ListConfig{
		{Kind: WaitFree, Processors: 3, BurstsPerCPU: 3, BurstOps: 5, TotalOps: 300, ListSize: 40, Seed: 4, Check: true},
		{Kind: WaitFree, Processors: 4, BurstsPerCPU: 3, BurstOps: 1, TotalOps: 2000, ListSize: 200, Seed: 7, Check: true},
		{Kind: WaitFree, Processors: 4, BurstsPerCPU: 2, BurstOps: 20, TotalOps: 1000, ListSize: 200, Seed: 11, Check: true},
	}
	for i, cfg := range cases {
		res, err := RunList(cfg)
		if err != nil {
			t.Fatalf("case %d: %v", i, err)
		}
		if res.Livelocked {
			t.Fatalf("case %d livelocked", i)
		}
	}
}

// TestGranularityAgreement: Fine and Coarse preemption-point densities give
// different virtual timings but identical logical outcomes under the
// checker, for the same seed.
func TestGranularityAgreement(t *testing.T) {
	for _, g := range []sched.Granularity{sched.Fine, sched.Coarse} {
		res, err := RunList(ListConfig{
			Kind: WaitFree, Processors: 3, BurstsPerCPU: 2, BurstOps: 5,
			TotalOps: 200, ListSize: 30, Seed: 12, Check: true, Granularity: g,
		})
		if err != nil {
			t.Fatalf("granularity %d: %v", g, err)
		}
		if res.Ops != 200 {
			t.Fatalf("granularity %d: ops = %d", g, res.Ops)
		}
	}
}
