package paper

import (
	"bytes"
	"encoding/json"
	"os"
	"testing"
)

// paperScale is the paper's setup, 50,000 operations on 4 processors, at
// which testdata/golden/BENCH_paper.json is generated (wfbench's defaults).
var paperScale = Scale{Ops: 50000, Procs: 4, Seed: 11}

// golden loads the committed paper-scale run of `wfbench -exp paper`.
func golden(t *testing.T) Doc {
	t.Helper()
	b, err := os.ReadFile("../../testdata/golden/BENCH_paper.json")
	if err != nil {
		t.Fatal(err)
	}
	var d Doc
	if err := json.Unmarshal(b, &d); err != nil {
		t.Fatal(err)
	}
	return d
}

// TestPaperBands runs the table twice at the reduced scale of the repo's
// shape tests (3,000 operations), asserts every band and byte-identical
// JSON, then re-judges the committed paper-scale numbers so a band cannot
// drift away from them.
func TestPaperBands(t *testing.T) {
	sc := Scale{Ops: 3000, Procs: 4, Seed: 11}
	var runs [2][]byte
	for i := range runs {
		d, err := RunAll(sc)
		if err != nil {
			t.Fatal(err)
		}
		if runs[i], err = d.JSON(); err != nil {
			t.Fatal(err)
		}
		for _, r := range d.Experiments {
			if i == 0 && r.Band != "pass" {
				t.Errorf("reduced scale %+v: %s", sc, r.Band)
			}
		}
	}
	if !bytes.Equal(runs[0], runs[1]) {
		t.Error("two runs of the table rendered different JSON")
	}

	g := golden(t)
	if g.Scale != paperScale || len(g.Experiments) != len(Experiments) {
		t.Fatalf("golden has scale %+v and %d experiments, want %+v and %d", g.Scale, len(g.Experiments), paperScale, len(Experiments))
	}
	for i, r := range g.Experiments {
		if ex := Experiments[i]; r.ID != ex.ID {
			t.Errorf("golden experiment %d = %q, want %q", i, r.ID, ex.ID)
		} else if err := ex.Judge(g.Scale, r.Tables); err != nil || r.Band != "pass" {
			t.Errorf("paper scale: %v (recorded verdict %q)", err, r.Band)
		}
	}
}

// corruptions breaks one measurement per experiment in a way its claim
// rules out.
var corruptions = map[string]func(ts []Table){
	// The W=32 uni MWCAS cost no longer doubles from W=16.
	"fig1": func(ts []Table) { ts[0].Rows[4].V[0] *= 2 },
	// A native CCAS that takes two steps.
	"fig8": func(ts []Table) { ts[0].Rows[0].V[0] = 2 },
	// The wait-free makespan at 200 elements doubles (ratio ~4.4).
	"sec34": func(ts []Table) { ts[0].Rows[0].V[0] *= 2 },
	// A lock-free list that never retries.
	"retries": func(ts []Table) { ts[0].Rows[0].V[0] = 0 },
	// Valois's cost model no slower than the CAS2 list.
	"valois": func(ts []Table) { ts[0].Rows[1].V[0] = ts[0].Rows[0].V[0] },
	// Priority helping slower than cyclic for the late high-priority op.
	"ablations": func(ts []Table) { ts[1].Rows[1].V[0] = 2 * ts[1].Rows[0].V[0] },
	// Sixteen hash buckets no faster than four.
	"ext": func(ts []Table) { ts[0].Rows[4].V[0] = ts[0].Rows[3].V[0] },
	// A uniprocessor MWCAS transaction that conflicts.
	"mwcas": func(ts []Table) { ts[0].Rows[0].V[1] = 1 },
}

// TestPaperBandsReject: every band rejects a corrupted copy of its
// paper-scale rows, so no band is vacuous.
func TestPaperBandsReject(t *testing.T) {
	for _, r := range golden(t).Experiments {
		ex, _ := Lookup(r.ID)
		corrupt, ok := corruptions[r.ID]
		if !ok {
			t.Errorf("%s: no corruption case", r.ID)
			continue
		}
		corrupt(r.Tables)
		if err := ex.Judge(paperScale, r.Tables); err == nil {
			t.Errorf("%s: band accepted corrupted rows", r.ID)
		} else {
			t.Logf("rejected: %v", err)
		}
	}
}
