package registry

// Tests for the policy/arrival seams in the release-point sweep driver:
// every template sweeps clean, the fcfs+bursty queue sweep is pinned to a
// golden signature stream that parallel execution reproduces byte-for-byte,
// every object × policy × arrival cell is pinned to a stream digest, and
// the reverse-priority stressor demonstrably visits behavioral signatures
// the paper's strict-priority discipline never produces.

import (
	"fmt"
	"hash/fnv"
	"os"
	"path/filepath"
	"strings"
	"testing"

	"repro/internal/arrival"
	"repro/internal/cover"
	"repro/internal/explore"
	"repro/internal/harness"
	"repro/internal/sched"
)

// TestSweepEveryPolicy: each policy template drives a full uniqueue sweep
// with zero violations — wait-freedom checking is policy-agnostic.
func TestSweepEveryPolicy(t *testing.T) {
	d, err := Lookup("uniqueue")
	if err != nil {
		t.Fatal(err)
	}
	for _, pol := range sched.PolicyNames() {
		t.Run(pol, func(t *testing.T) {
			n, err := d.Sweep(SweepConfig{Max: 16, Policy: pol})
			if err != nil {
				t.Fatal(err)
			}
			if n == 0 {
				t.Errorf("sweep explored no schedules")
			}
		})
	}
}

// TestSweepEveryArrival: each arrival template reshapes the base workers of
// a uni and a multi sweep without breaking any schedule.
func TestSweepEveryArrival(t *testing.T) {
	for _, object := range []string{"uniqueue", "multiqueue"} {
		d, err := Lookup(object)
		if err != nil {
			t.Fatal(err)
		}
		for _, arr := range arrival.Names() {
			t.Run(object+"/"+arr, func(t *testing.T) {
				n, err := d.Sweep(SweepConfig{Max: 16, Arrival: arr})
				if err != nil {
					t.Fatal(err)
				}
				if n == 0 {
					t.Errorf("sweep explored no schedules")
				}
			})
		}
	}
}

// fcfsBurstySweepLines runs the fcfs+bursty uniqueue sweep with the given
// worker count, one schedule per line ("rel=[a b] sig=<16 hex>"), in
// enumeration order. Workers>1 exercises the parallel path: the same
// sweepOne cell driver harness.Map'd over explore.Vectors.
func fcfsBurstySweepLines(t *testing.T, workers int) []string {
	t.Helper()
	d, err := Lookup("uniqueue")
	if err != nil {
		t.Fatal(err)
	}
	cfg := SweepConfig{Max: 16, Policy: "fcfs", Arrival: "bursty"}
	if workers <= 1 {
		var lines []string
		cfg.Observe = func(rel []int64, sig uint64) {
			lines = append(lines, fmt.Sprintf("rel=%v sig=%016x", rel, sig))
		}
		if _, err := d.Sweep(cfg); err != nil {
			t.Fatal(err)
		}
		return lines
	}
	// Parallel path: enumerate the vectors once, then fan the cells out
	// across workers, each cell running one schedule on its own sweeper.
	// harness.Map returns results in input order, so the line stream must
	// be byte-identical to the serial loop's.
	vecs, err := explore.Vectors(exploreConfig(cfg))
	if err != nil {
		t.Fatal(err)
	}
	lines, err := harness.Map(len(vecs), harness.Options{Workers: workers}, func(i int) (string, error) {
		var line string
		cell := cfg
		cell.Observe = func(rel []int64, sig uint64) {
			line = fmt.Sprintf("rel=%v sig=%016x", rel, sig)
		}
		sw, err := d.newSweeper(cell)
		if err != nil {
			return "", err
		}
		defer sw.close()
		if _, err := sw.runOne(vecs[i]); err != nil {
			return "", err
		}
		return line, nil
	})
	if err != nil {
		t.Fatal(err)
	}
	return lines
}

// TestFcfsBurstySweepGolden pins the fcfs+bursty queue sweep's signature
// stream to a golden file and requires the 4-worker parallel run to produce
// byte-identical output to the serial loop. Regenerate the golden with
// WF_UPDATE_GOLDEN=1.
func TestFcfsBurstySweepGolden(t *testing.T) {
	serial := strings.Join(fcfsBurstySweepLines(t, 1), "\n") + "\n"
	par := strings.Join(fcfsBurstySweepLines(t, 4), "\n") + "\n"
	if serial != par {
		t.Fatalf("parallel sweep output differs from serial:\n--- serial ---\n%s--- parallel ---\n%s", serial, par)
	}
	golden := filepath.Join("testdata", "fcfs_bursty_uniqueue_sweep.golden")
	if os.Getenv("WF_UPDATE_GOLDEN") != "" {
		if err := os.MkdirAll(filepath.Dir(golden), 0o755); err != nil {
			t.Fatal(err)
		}
		if err := os.WriteFile(golden, []byte(serial), 0o644); err != nil {
			t.Fatal(err)
		}
		t.Logf("golden updated: %s", golden)
		return
	}
	want, err := os.ReadFile(golden)
	if err != nil {
		t.Fatalf("missing golden (run with WF_UPDATE_GOLDEN=1 to create): %v", err)
	}
	if serial != string(want) {
		t.Errorf("fcfs+bursty sweep diverged from golden %s:\n--- got ---\n%s--- want ---\n%s", golden, serial, want)
	}
}

// TestReversePriorityCoverageDivergence: the pathological stressor must
// visit behavioral signatures the default policy cannot. The cast inverts
// the sweep's usual shape — the victim runs at the TOP priority and the
// swept adversaries below it — because under reverse-priority it is
// exactly the lower-priority arrivals that preempt. The default policy
// never lets them, so every mid-operation preemption of the victim here is
// a schedule outside the strict-priority reachable set. Signatures are
// compared with the policy stamp cleared, so only behavior distinguishes
// the sets.
func TestReversePriorityCoverageDivergence(t *testing.T) {
	d, err := Lookup("uniqueue")
	if err != nil {
		t.Fatal(err)
	}
	icfg := d.StressConfig(3)
	scripts := make([][]Op, 3)
	for slot := range scripts {
		n := sweepVictimOps
		if slot >= 1 {
			n = sweepAdvOps
		}
		scripts[slot] = d.Ops(icfg, sweepSeed, slot, n)
	}
	vecs, err := explore.Vectors(explore.Config{Adversaries: 2, Max: 24, Stride: 2, Gap: 8})
	if err != nil {
		t.Fatal(err)
	}
	run := func(polName string, rel []int64) (uint64, int) {
		pol, err := sched.PolicyByName(polName)
		if err != nil {
			t.Fatal(err)
		}
		s := sched.Acquire(sched.Config{Processors: 1, Seed: 1, MemWords: 1 << 15, Policy: pol})
		defer sched.Release(s)
		inst, err := Build(s, d.Name, icfg)
		if err != nil {
			t.Fatal(err)
		}
		script := func(slot int) func(e *sched.Env) {
			ops := scripts[slot]
			return func(e *sched.Env) {
				for _, op := range ops {
					inst.Apply(e, slot, op)
				}
			}
		}
		s.Spawn(sched.JobSpec{Name: "victim", CPU: 0, Prio: 9, Slot: 0, AfterSlices: -1, Cost: int64(len(scripts[0])), Body: script(0)})
		s.Spawn(sched.JobSpec{Name: "adv", CPU: 0, Prio: 5, Slot: 1, AfterSlices: rel[0], Cost: int64(len(scripts[1])), Body: script(1)})
		s.Spawn(sched.JobSpec{Name: "adv2", CPU: 0, Prio: 1, Slot: 2, AfterSlices: rel[1], Cost: int64(len(scripts[2])), Body: script(2)})
		if err := s.Run(); err != nil {
			t.Fatalf("%s rel=%v: %v", polName, rel, err)
		}
		if err := inst.CheckErr(); err != nil {
			t.Fatalf("%s rel=%v: %v", polName, rel, err)
		}
		var victimPreempted int
		for _, p := range s.Procs() {
			if p.Name() == "victim" {
				victimPreempted = p.Preemptions
			}
		}
		rep := s.Report(d.Name)
		rep.Policy = "" // compare behavior, not the label
		return cover.ReportSig(rep), victimPreempted
	}
	defaultSigs := make(map[uint64]bool)
	for _, rel := range vecs {
		sig, _ := run("", rel)
		defaultSigs[sig] = true
	}
	novel, preempted := 0, 0
	for _, rel := range vecs {
		sig, vp := run("reverse-priority", rel)
		if !defaultSigs[sig] {
			novel++
		}
		preempted += vp
	}
	if preempted == 0 {
		t.Errorf("reverse-priority never preempted the top-priority victim; the stressor is inert")
	}
	if novel == 0 {
		t.Errorf("reverse-priority visited no signature outside the default policy's %d-signature set across %d vectors",
			len(defaultSigs), len(vecs))
	} else {
		t.Logf("reverse-priority: %d/%d vectors produced signatures the default policy never visits (default set: %d sigs)",
			novel, len(vecs), len(defaultSigs))
	}
}

// TestRunAheadDifferentialPolicyArrival pins the sweep over the whole
// policy × arrival grid: for each swept object, every policy template and
// every arrival trace, the schedule stream (release vector plus behavioral
// signature per schedule) must hash to the digest in
// testdata/policy_arrival_sweeps.golden. Those digests were recorded when
// this test still ran each cell with the run-ahead grant on and off and
// required the two streams to agree, so they are the stream both
// scheduling paths produced; the one path left must reproduce it.
func TestRunAheadDifferentialPolicyArrival(t *testing.T) {
	golden := filepath.Join("testdata", "policy_arrival_sweeps.golden")
	raw, err := os.ReadFile(golden)
	if err != nil {
		t.Fatal(err)
	}
	want := map[string]string{}
	for _, line := range strings.Split(strings.TrimSpace(string(raw)), "\n") {
		cell, digest, ok := strings.Cut(line, " ")
		if !ok {
			t.Fatalf("%s: malformed line %q", golden, line)
		}
		want[cell] = digest
	}
	cells := 0
	for _, object := range []string{"uniqueue", "multiqueue", "unilist", "multilist"} {
		d, err := Lookup(object)
		if err != nil {
			t.Fatal(err)
		}
		for _, pol := range sched.PolicyNames() {
			for _, arr := range arrival.Names() {
				cell := object + "/" + pol + "/" + arr
				cells++
				t.Run(cell, func(t *testing.T) {
					h := fnv.New64a()
					cfg := SweepConfig{Max: 16, Policy: pol, Arrival: arr, Observe: func(rel []int64, sig uint64) {
						fmt.Fprintf(h, "rel=%v sig=%016x\n", rel, sig)
					}}
					n, err := d.Sweep(cfg)
					if err != nil {
						t.Fatal(err)
					}
					if n == 0 {
						t.Fatal("sweep observed no schedules")
					}
					if got := fmt.Sprintf("%016x", h.Sum64()); got != want[cell] {
						t.Errorf("schedule stream digest %s over %d schedules, want %q", got, n, want[cell])
					}
				})
			}
		}
	}
	if cells != len(want) {
		t.Errorf("swept %d cells, %s pins %d", cells, golden, len(want))
	}
}
