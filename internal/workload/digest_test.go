package workload

import (
	"fmt"
	"hash/fnv"
	"testing"

	"repro/internal/prim"
)

// workloadDigests pins the runs no golden covers: FNV-64a of the run
// report's JSON plus the result fields (list runs), or of the result
// fields alone (the MWCAS run, whose result carries no report). Any change
// to a job's name, CPU, priority, slot, release or op draw moves a digest
// here.
var workloadDigests = map[string]uint64{
	"casonly-valois":         0xdf96722cbae23747,
	"lockbased":              0x847d97ab23f3beba,
	"waitfree/fcfs":          0x99fb2ee8b78e93f3,
	"waitfree/priority-fcfs": 0x7dbdb7e6c1f41b0f,
	"waitfree-uni/check":     0xce623c6e32ac4a35,
	"mwcas-multi/tagged":     0x634fac44788bc299,
}

// digestRuns are the pinned runs, keyed as in workloadDigests.
var digestRuns = map[string]ListConfig{
	"casonly-valois": {Kind: CASOnly, Processors: 4, BurstsPerCPU: 2, BurstOps: 10, TotalOps: 400, ListSize: 50, Seed: 3},
	"lockbased":      {Kind: LockBased, Processors: 4, BurstsPerCPU: 2, BurstOps: 10, TotalOps: 400, ListSize: 50, Seed: 1},
	"waitfree/fcfs": {Kind: WaitFree, Processors: 3, BurstsPerCPU: 2, BurstOps: 8, TotalOps: 300, ListSize: 40,
		Seed: 5, SearchPercent: 30, Policy: "fcfs"},
	"waitfree/priority-fcfs": {Kind: WaitFree, Processors: 3, BurstsPerCPU: 2, BurstOps: 8, TotalOps: 300, ListSize: 40,
		Seed: 5, SearchPercent: 30, Policy: "priority-fcfs"},
	"waitfree-uni/check": {Kind: WaitFreeUni, Processors: 1, BurstsPerCPU: 3, BurstOps: 6, TotalOps: 200, ListSize: 30,
		Seed: 9, SearchPercent: 20, Check: true},
}

func fnv64(b []byte) uint64 {
	h := fnv.New64a()
	h.Write(b)
	return h.Sum64()
}

// TestWorkloadDigests runs every pinned run and compares its digest.
func TestWorkloadDigests(t *testing.T) {
	got := map[string]uint64{}
	for key, cfg := range digestRuns {
		res, err := RunList(cfg)
		if err != nil {
			t.Fatalf("%s: %v", key, err)
		}
		b, err := res.Report.JSON()
		if err != nil {
			t.Fatal(err)
		}
		b = fmt.Appendf(b, "ops=%d makespan=%d worst=%d base=%d retries=%d/%d final=%d livelocked=%v",
			res.Ops, res.Makespan, res.WorstOp, res.BaseOp, res.Retries, res.WorstRetries, res.Final, res.Livelocked)
		got[key] = fnv64(b)
	}
	m, err := RunMWCAS(MWCASConfig{
		Kind: MWCASMulti, Processors: 3, Words: 5, Width: 2, TotalCommits: 150,
		BurstsPerCPU: 2, BurstCommits: 6, Seed: 4, CC: prim.Tagged{},
	})
	if err != nil {
		t.Fatal(err)
	}
	got["mwcas-multi/tagged"] = fnv64(fmt.Appendf(nil, "commits=%d failures=%d makespan=%d worst=%d",
		m.Commits, m.Failures, m.Makespan, m.WorstOp))

	for key, g := range got {
		if want, ok := workloadDigests[key]; !ok || g != want {
			t.Errorf("%s: digest %#x, want %#x", key, g, want)
		}
	}
	if len(got) != len(workloadDigests) {
		t.Errorf("ran %d runs, pinned %d", len(got), len(workloadDigests))
	}
}
