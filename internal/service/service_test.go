package service

import (
	"reflect"
	"runtime"
	"testing"
	"unsafe"

	"repro/internal/native"
)

// TestTrafficDeterministic: the generator is a pure function of
// (seed, slot) — identical inputs give identical streams, different
// slots give different ones, and streams honor the configured domains.
func TestTrafficDeterministic(t *testing.T) {
	cfg := TrafficConfig{Keys: 32, Tenants: 3, Zipf: 1.3, WindowLen: 16, MaxDelta: 5}
	a := cfg.Requests(42, 0, 500)
	b := cfg.Requests(42, 0, 500)
	if !reflect.DeepEqual(a, b) {
		t.Fatal("same (seed, slot) produced different streams")
	}
	c := cfg.Requests(42, 1, 500)
	if reflect.DeepEqual(a, c) {
		t.Fatal("different slots produced identical streams")
	}
	d := cfg.Requests(43, 0, 500)
	if reflect.DeepEqual(a, d) {
		t.Fatal("different seeds produced identical streams")
	}
	for i, r := range a {
		if r.Key < 0 || r.Key >= cfg.Keys {
			t.Fatalf("req %d: key %d out of [0,%d)", i, r.Key, cfg.Keys)
		}
		if r.Tenant < 0 || r.Tenant >= cfg.Tenants {
			t.Fatalf("req %d: tenant %d out of [0,%d)", i, r.Tenant, cfg.Tenants)
		}
		if r.Delta < 1 || r.Delta > uint64(cfg.MaxDelta) {
			t.Fatalf("req %d: delta %d out of [1,%d]", i, r.Delta, cfg.MaxDelta)
		}
		if want := uint64(i / cfg.WindowLen); r.Window != want {
			t.Fatalf("req %d: window %d, want %d", i, r.Window, want)
		}
	}
}

// TestTrafficHotKeySkew: with a Zipfian exponent the hottest key takes a
// disproportionate share of the stream (the distribution the subsystem
// exists to stress).
func TestTrafficHotKeySkew(t *testing.T) {
	cfg := TrafficConfig{Keys: 64, Zipf: 1.2}
	reqs := cfg.Requests(1, 0, 4000)
	counts := make([]int, 64)
	for _, r := range reqs {
		counts[r.Key]++
	}
	max := 0
	for _, c := range counts {
		if c > max {
			max = c
		}
	}
	// Uniform would put ~62 requests on each key; Zipf s=1.2 concentrates
	// far more on the head.
	if max < 400 {
		t.Fatalf("hottest key got %d/4000 requests; expected Zipfian concentration (> 400)", max)
	}
}

// TestNativeConservation is the -race stress oracle: every kind × variant
// at high goroutine counts, with the drivers' built-in conservation
// checks (counter totals = applied deltas; limiter admits ≤ budget per
// window, totals = admitted) deciding pass/fail.
func TestNativeConservation(t *testing.T) {
	procs := 64
	reqs := 50
	if testing.Short() {
		procs = 16
		reqs = 30
	}
	for _, kind := range Kinds() {
		for _, variant := range Variants() {
			kind, variant := kind, variant
			t.Run(string(kind)+"/"+string(variant), func(t *testing.T) {
				t.Parallel()
				res, err := RunNative(NativeConfig{
					Kind: kind, Variant: variant,
					Procs: procs, Requests: reqs, Seed: 99,
					Traffic: TrafficConfig{Keys: 16, Tenants: 4, WindowLen: 10},
					Budget:  24,
				})
				if err != nil {
					t.Fatal(err)
				}
				if res.Applied+res.Lost != res.Requests {
					t.Fatalf("applied %d + lost %d != requests %d", res.Applied, res.Lost, res.Requests)
				}
				if variant != WaitFree && res.Lost != 0 {
					t.Fatalf("%s variant lost %d requests (only the wait-free retry cap may drop)", variant, res.Lost)
				}
				if kind == Limiter && res.Admitted == 0 {
					t.Fatal("limiter admitted nothing")
				}
				if res.Steps == 0 {
					t.Fatal("no backend steps counted")
				}
			})
		}
	}
}

// TestNativeObsReport: with Obs the native driver produces a report in
// the shared shape — latency histogram populated, one proc row per
// goroutine.
func TestNativeObsReport(t *testing.T) {
	res, err := RunNative(NativeConfig{
		Kind: Counter, Variant: WaitFree,
		Procs: 8, Requests: 40, Seed: 3, Obs: true,
	})
	if err != nil {
		t.Fatal(err)
	}
	rep := res.Report
	if rep == nil {
		t.Fatal("Obs run produced no report")
	}
	if len(rep.Procs) != 8 {
		t.Fatalf("report has %d procs, want 8", len(rep.Procs))
	}
	if rep.OpLatency == nil || rep.OpLatency.Count == 0 {
		t.Fatal("report has no latency samples")
	}
	if rep.Granularity != "native" {
		t.Fatalf("granularity %q, want native", rep.Granularity)
	}
	// The wait-free store runs on the registry's multiprocessor layout:
	// min(GOMAXPROCS, Procs) shards, slots dealt round-robin.
	shards := min(runtime.GOMAXPROCS(0), 8)
	if rep.Processors != shards {
		t.Fatalf("report has %d processors, want %d shards", rep.Processors, shards)
	}
	for _, pr := range rep.Procs {
		if pr.CPU != pr.Slot%shards || pr.Prio != pr.Slot/shards {
			t.Errorf("slot %d at (cpu %d, prio %d), want (%d, %d)", pr.Slot, pr.CPU, pr.Prio, pr.Slot%shards, pr.Slot/shards)
		}
	}
	// The other variants run free.
	res, err = RunNative(NativeConfig{
		Kind: Counter, Variant: Atomic,
		Procs: 8, Requests: 40, Seed: 3, Obs: true,
	})
	if err != nil {
		t.Fatal(err)
	}
	for _, pr := range res.Report.Procs {
		if pr.CPU != 0 || pr.Prio != 0 {
			t.Errorf("atomic slot %d at (cpu %d, prio %d), want free (0, 0)", pr.Slot, pr.CPU, pr.Prio)
		}
	}
}

// TestStoreConfigValidation: the constructor rejects nonsense instead of
// building a store that corrupts silently.
func TestStoreConfigValidation(t *testing.T) {
	if _, err := RunNative(NativeConfig{Kind: "bogus", Variant: Atomic, Procs: 1, Requests: 1}); err == nil {
		t.Fatal("bogus kind accepted")
	}
	if _, err := RunNative(NativeConfig{Kind: Counter, Variant: "bogus", Procs: 1, Requests: 1}); err == nil {
		t.Fatal("bogus variant accepted")
	}
	// Past the native backend's slot limit: an error before any process
	// is placed or spawned, not NewProc's panic on the extra slot.
	for _, v := range []Variant{WaitFree, Atomic} {
		if _, err := RunNative(NativeConfig{Kind: Counter, Variant: v, Procs: native.MaxSlots + 1, Requests: 1}); err == nil {
			t.Fatalf("%s: %d procs accepted", v, native.MaxSlots+1)
		}
	}
	// Traffic the generator cannot serve is an error from both drivers,
	// not a panic or a wrapped window.
	for _, c := range []struct {
		name string
		reqs int
		tr   TrafficConfig
	}{
		{"negative MaxDelta", 1, TrafficConfig{MaxDelta: -1}},
		{"negative WindowLen", 1, TrafficConfig{WindowLen: -1}},
		{"windows past 1<<24", 1<<24 + 1, TrafficConfig{WindowLen: 1}},
	} {
		if _, err := RunSim(SimConfig{Kind: Counter, Variant: Atomic, Requests: c.reqs, Traffic: c.tr}); err == nil {
			t.Errorf("sim: %s accepted", c.name)
		}
		if _, err := RunNative(NativeConfig{Kind: Counter, Variant: Atomic, Procs: 1, Requests: c.reqs, Traffic: c.tr}); err == nil {
			t.Errorf("native: %s accepted", c.name)
		}
	}
}

// TestShardedLimiterNeverOverAdmits: the sharded limiter's split budgets
// must stay under the global budget even when slots outnumber tokens.
func TestShardedLimiterNeverOverAdmits(t *testing.T) {
	res, err := RunNative(NativeConfig{
		Kind: Limiter, Variant: Sharded,
		Procs: 12, Requests: 60, Seed: 5,
		Traffic: TrafficConfig{Tenants: 2, WindowLen: 6},
		Budget:  7, // fewer tokens than slots: some stripes get zero
	})
	if err != nil {
		t.Fatal(err)
	}
	for tw, n := range res.Admits {
		if n > 7 {
			t.Fatalf("tenant %d window %d admitted %d > budget 7", tw.Tenant, tw.Window, n)
		}
	}
}

// TestWFScratchLayout pins the waitfree stores' per-slot scratch entry to
// one 64-byte cache line: every request writes its slot's entry, and two
// slots sharing a line would contend on it.
func TestWFScratchLayout(t *testing.T) {
	if size := unsafe.Sizeof(wfScratch{}); size != 64 {
		t.Errorf("wfScratch is %d bytes, want 64 (one cache line per slot)", size)
	}
}

// TestNativeBuildAtMaxSlots: RunNative's memory sizing fits every store
// at native.MaxSlots processes, with each slot's rows padded to whole
// cache lines. It builds only; no goroutine starts.
func TestNativeBuildAtMaxSlots(t *testing.T) {
	for _, k := range Kinds() {
		for _, v := range Variants() {
			cfg := NativeConfig{Kind: k, Variant: v, Procs: native.MaxSlots, Requests: 1}
			cfg.Traffic = cfg.Traffic.Normalized()
			h, _, err := buildNative(cfg)
			if err != nil {
				t.Fatalf("%s/%s at %d procs: %v", k, v, native.MaxSlots, err)
			}
			mem := h.World.Mem()
			t.Logf("%s/%s: %d of %d words allocated", k, v, mem.Allocated(), mem.Capacity())
		}
	}
}
