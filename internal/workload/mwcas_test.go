package workload

import (
	"strings"
	"testing"
)

// TestMWCASWorkloadUni: the uniprocessor MWCAS workload conserves commits
// under preemption bursts.
func TestMWCASWorkloadUni(t *testing.T) {
	res, err := RunMWCAS(MWCASConfig{
		Kind: MWCASUni, Processors: 1, Words: 6, Width: 3,
		TotalCommits: 200, BurstsPerCPU: 3, BurstCommits: 10, Seed: 1,
	})
	if err != nil {
		t.Fatal(err)
	}
	if res.Commits != 200 {
		t.Errorf("commits = %d, want 200", res.Commits)
	}
	if res.Makespan <= 0 || res.WorstOp <= 0 {
		t.Errorf("degenerate measurements: %+v", res)
	}
}

// TestMWCASWorkloadMulti: the multiprocessor MWCAS workload conserves
// commits across processors and helping modes, and contention causes
// application-level retries.
func TestMWCASWorkloadMulti(t *testing.T) {
	for seed := int64(1); seed <= 4; seed++ {
		res, err := RunMWCAS(MWCASConfig{
			Kind: MWCASMulti, Processors: 4, Words: 4, Width: 2,
			TotalCommits: 200, BurstsPerCPU: 2, BurstCommits: 5, Seed: seed,
		})
		if err != nil {
			t.Fatalf("seed %d: %v", seed, err)
		}
		if res.Commits != 200 {
			t.Errorf("seed %d: commits = %d, want 200", seed, res.Commits)
		}
		if res.Failures == 0 {
			t.Logf("seed %d: no conflicts observed (unusual but legal)", seed)
		}
	}
}

// TestMWCASWorkloadValidation covers the error paths.
func TestMWCASWorkloadValidation(t *testing.T) {
	if _, err := RunMWCAS(MWCASConfig{Kind: MWCASUni, Processors: 2, Words: 4, Width: 2, TotalCommits: 10}); err == nil {
		t.Error("uni kind on 2 processors accepted")
	}
	if _, err := RunMWCAS(MWCASConfig{Kind: MWCASMulti, Processors: 2, Words: 2, Width: 5, TotalCommits: 10}); err == nil {
		t.Error("width beyond words accepted")
	}
	if _, err := RunMWCAS(MWCASConfig{Kind: MWCASKind("bogus"), Processors: 1, Words: 2, Width: 1, TotalCommits: 10}); err == nil {
		t.Error("unknown kind accepted")
	}
	if _, err := RunMWCAS(MWCASConfig{Kind: MWCASMulti, Processors: 1, Words: 2, Width: 1, TotalCommits: 5, BurstsPerCPU: 10, BurstCommits: 10}); err == nil {
		t.Error("burst overflow accepted")
	}
	if _, err := RunMWCAS(MWCASConfig{Kind: MWCASMulti, Processors: 1, Words: 2, Width: 1, TotalCommits: -3}); err == nil ||
		!strings.Contains(err.Error(), "total commits -3 is negative") {
		t.Errorf("negative total: err = %v, want a plain negative-total error", err)
	}
	if _, err := RunMWCAS(MWCASConfig{Kind: MWCASMulti, Processors: 1, Words: 2, Width: 1, TotalCommits: 5, BurstsPerCPU: -1, BurstCommits: 2}); err == nil {
		t.Error("negative bursts accepted")
	}
}
