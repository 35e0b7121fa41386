package registry

import (
	"encoding/json"
	"testing"

	"repro/internal/metrics"
	"repro/internal/native"
)

// TestNativeObsEveryObject is the tentpole acceptance check: a native run
// of every registered object with the metrics layer on must produce a
// metrics.Report with nonzero step counters, a populated latency
// histogram, and CAS traffic on the objects that synchronize with CAS.
func TestNativeObsEveryObject(t *testing.T) {
	const procs, ops = 4, 40
	for _, d := range All() {
		cfg := d.StressConfig(procs)
		cfg.Check = false
		if d.Name != "herlihy" {
			// Let RunNative size node pools to the op budget (herlihy's
			// capacity is its state-array size, not a pool).
			cfg.Capacity = 0
		}
		res, err := d.RunNative(NativeRun{
			Procs: procs, Ops: ops, Seed: 7, Cfg: cfg, Obs: true,
		})
		if err != nil {
			t.Fatalf("%s: %v", d.Name, err)
		}
		rep := res.Report
		if rep == nil {
			t.Fatalf("%s: Obs run returned nil Report", d.Name)
		}
		if rep.Granularity != "native" {
			t.Errorf("%s: Granularity = %q, want native", d.Name, rep.Granularity)
		}
		if rep.Mem.Steps() == 0 {
			t.Errorf("%s: zero memory steps in native report", d.Name)
		}
		if rep.Mem.CAS+rep.Mem.CAS2+rep.Mem.CCAS == 0 {
			t.Errorf("%s: no synchronization attempts recorded", d.Name)
		}
		if rep.OpLatency == nil || rep.OpLatency.Count != uint64(procs*ops) {
			t.Errorf("%s: OpLatency count = %v, want %d samples", d.Name, rep.OpLatency, procs*ops)
		}
		if len(rep.Procs) != procs {
			t.Fatalf("%s: %d proc reports, want %d", d.Name, len(rep.Procs), procs)
		}
		for _, pr := range rep.Procs {
			if pr.Mem.Steps() == 0 {
				t.Errorf("%s: proc %s executed zero steps", d.Name, pr.Name)
			}
			if pr.Latency == nil || pr.Latency.Count != uint64(ops) {
				t.Errorf("%s: proc %s latency histogram has %v samples, want %d",
					d.Name, pr.Name, pr.Latency, ops)
			}
		}
		if d.Family != FamilyBaseline && rep.Slices == 0 {
			t.Errorf("%s: sharded family reported zero slices", d.Name)
		}
	}

	// Helping depends on real preemption timing — it shows up on roughly
	// half a percent of contended queue operations — so the check targets
	// the queue objects with a real op budget and retries seeds. Dead
	// helping counters would make every attempt read zero.
	totalHelps := 0
	for seed := int64(1); seed <= 4 && totalHelps == 0; seed++ {
		for _, name := range []string{"uniqueue", "multiqueue"} {
			d, err := Lookup(name)
			if err != nil {
				t.Fatal(err)
			}
			cfg := d.StressConfig(4)
			cfg.Check = false
			cfg.Capacity = 0
			res, err := d.RunNative(NativeRun{Procs: 4, Ops: 4000, Seed: seed, Cfg: cfg, Obs: true})
			if err != nil {
				t.Fatalf("%s: %v", name, err)
			}
			totalHelps += res.Report.HelpGiven
			if res.Report.HelpGiven != res.Report.HelpReceived {
				t.Errorf("%s: HelpGiven %d != HelpReceived %d (pairwise helping must balance)",
					name, res.Report.HelpGiven, res.Report.HelpReceived)
			}
		}
	}
	if totalHelps == 0 {
		t.Error("no helping observed on the queue objects over 4 seeds; helping counters are dead")
	}
}

// TestNativeObsDeterministicAggregation pins that the aggregation itself
// is stable: two single-proc runs (fully deterministic op streams, no
// contention) must produce byte-identical reports once the wall-clock
// fields are zeroed.
func TestNativeObsDeterministicAggregation(t *testing.T) {
	for _, name := range []string{"unilist", "multiqueue", "gclist"} {
		d, err := Lookup(name)
		if err != nil {
			t.Fatal(err)
		}
		run := func() []byte {
			cfg := d.StressConfig(1)
			cfg.Check = false
			cfg.Capacity = 0
			res, err := d.RunNative(NativeRun{Procs: 1, Ops: 60, Seed: 3, Cfg: cfg, Obs: true})
			if err != nil {
				t.Fatalf("%s: %v", name, err)
			}
			rep := res.Report
			stripWallClock(rep)
			b, err := json.Marshal(rep)
			if err != nil {
				t.Fatal(err)
			}
			return b
		}
		a, b := run(), run()
		if string(a) != string(b) {
			t.Errorf("%s: single-proc native reports differ after zeroing wall-clock fields:\n%s\n%s", name, a, b)
		}
	}
}

// stripWallClock zeroes every field derived from the wall clock, leaving
// only the deterministic content (counters, structure, scheduling shape).
func stripWallClock(r *metrics.Report) {
	r.ElapsedVT = 0
	r.OpTime = metrics.Summary{}
	r.OpLatency = nil
	r.Response = metrics.Summary{}
	r.DispatchLatency = metrics.Summary{}
	for i := range r.Procs {
		p := &r.Procs[i]
		p.ReleasedVT, p.StartedVT, p.CompletedVT = 0, 0, 0
		p.DispatchLatencyVT, p.ResponseVT = 0, 0
		p.OpTime = metrics.Summary{}
		p.Latency = nil
	}
}

// TestNativeObsRecorderDrains checks the registry plumbing of the flight
// recorder: a recorded run returns a non-empty TraceLog whose invoke and
// response annotation counts match the op budget.
func TestNativeObsRecorderDrains(t *testing.T) {
	d, err := Lookup("unistack")
	if err != nil {
		t.Fatal(err)
	}
	const procs, ops = 3, 25
	cfg := d.StressConfig(procs)
	cfg.Check = false
	cfg.Capacity = 0
	res, err := d.RunNative(NativeRun{
		Procs: procs, Ops: ops, Seed: 11, Cfg: cfg, Obs: true, Recorder: true,
	})
	if err != nil {
		t.Fatal(err)
	}
	if res.TraceLog == nil {
		t.Fatal("Recorder run returned nil TraceLog")
	}
	if res.DroppedEvents != 0 {
		t.Fatalf("default ring capacity dropped %d events on a %d-op run", res.DroppedEvents, procs*ops)
	}
	invokes, responses := 0, 0
	for _, ev := range res.TraceLog.Annotations() {
		switch ev.Key {
		case "invoke":
			invokes++
		case "response":
			responses++
		}
	}
	if invokes != procs*ops || responses != procs*ops {
		t.Fatalf("trace has %d invokes / %d responses, want %d each", invokes, responses, procs*ops)
	}
}

// TestNativeObsOffByDefault: the default run must not collect.
func TestNativeObsOffByDefault(t *testing.T) {
	d, err := Lookup("unilist")
	if err != nil {
		t.Fatal(err)
	}
	cfg := d.StressConfig(2)
	cfg.Check = false
	res, err := d.RunNative(NativeRun{Procs: 2, Ops: 10, Seed: 1, Cfg: cfg})
	if err != nil {
		t.Fatal(err)
	}
	if res.Report != nil || res.TraceLog != nil {
		t.Fatal("unobserved run returned a Report or TraceLog")
	}
}

// TestNativeShardsCapped: the multiprocessor layout never makes more
// shards than processes, so a one-process run has one processor.
func TestNativeShardsCapped(t *testing.T) {
	d, err := Lookup("multilist")
	if err != nil {
		t.Fatal(err)
	}
	cfg := d.StressConfig(1)
	cfg.Check = false
	cfg.Capacity = 0
	res, err := d.RunNative(NativeRun{Procs: 1, Ops: 20, Seed: 5, Cfg: cfg})
	if err != nil {
		t.Fatal(err)
	}
	if got := res.World.Processors(); got != 1 {
		t.Fatalf("one-process multilist run has %d processors, want 1", got)
	}
}

// TestNativeProcsOverMaxSlots: a process count past the native backend's
// slot limit is a plain error for every object, returned before any
// process is placed or spawned (NewProc would panic on the extra slot).
func TestNativeProcsOverMaxSlots(t *testing.T) {
	for _, d := range All() {
		res, err := d.RunNative(NativeRun{Procs: native.MaxSlots + 1, Ops: 1, Seed: 1, Cfg: d.StressConfig(1)})
		if err == nil || res != nil {
			t.Errorf("%s: RunNative with %d procs = (%v, %v), want an error", d.Name, native.MaxSlots+1, res, err)
		}
	}
}
