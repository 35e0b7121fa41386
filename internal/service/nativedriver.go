package service

import (
	"fmt"
	"runtime"
	"time"

	"repro/internal/metrics"
	"repro/internal/native"
	"repro/internal/registry"
)

// The native driver: the same scenario on real hardware, run through
// the registry's native harness. Procs goroutines each stream their
// generated requests into the store with one Begin/End shard window per
// request, so the per-goroutine latency histograms measure the full hot
// path (shard wait included). The wait-free variant runs on the
// multiprocessor family's priority-disciplined sharded world — the
// scheduling regime the paper's objects are built for — while the
// atomic/lock/sharded variants run free, the anything-goes regime they
// are designed for.

// NativeConfig parameterizes a native service run.
type NativeConfig struct {
	Kind    Kind
	Variant Variant
	// Procs is the goroutine count (default GOMAXPROCS).
	Procs int
	// Requests is each goroutine's request count (default 200).
	Requests int
	// Traffic shapes the request stream (same generator as the sim).
	Traffic TrafficConfig
	// Budget and Batch pass through to StoreConfig.
	Budget int
	Batch  int
	Seed   int64
	// Obs enables the native metrics layer; the Report field is nil
	// without it.
	Obs bool
}

// NativeResult is the measured outcome of one native run.
type NativeResult struct {
	Cfg    NativeConfig
	Report *metrics.Report
	Outcome
	// Elapsed is the wall-clock spawn-to-join time.
	Elapsed time.Duration
}

// RunNative executes one service scenario on real goroutines.
func RunNative(cfg NativeConfig) (*NativeResult, error) {
	if cfg.Procs == 0 {
		cfg.Procs = runtime.GOMAXPROCS(0)
	}
	if cfg.Requests == 0 {
		cfg.Requests = 200
	}
	cfg.Traffic = cfg.Traffic.Normalized()
	h, st, err := buildNative(cfg)
	if err != nil {
		return nil, err
	}

	N := cfg.Procs
	tallies := make([]slotTally, N)
	hr := h.Run(fmt.Sprintf("service-%s-%s", cfg.Kind, cfg.Variant), cfg.Seed, func(p *native.Proc, slot int) {
		t := &tallies[slot]
		*t = newSlotTally(cfg.Requests)
		for _, req := range cfg.Traffic.Requests(cfg.Seed, slot, cfg.Requests) {
			p.Begin()
			resp := st.Apply(p, slot, req)
			p.End()
			t.add(cfg.Kind, req, resp)
		}
		p.Begin()
		st.Flush(p, slot)
		p.End()
	})

	res := &NativeResult{Cfg: cfg, Report: hr.Report, Elapsed: hr.Elapsed}
	res.Requests = N * cfg.Requests
	res.Steps = hr.Counts.Steps()
	if err := res.finish(cfg.Kind, cfg.Budget, st, tallies); err != nil {
		return nil, err
	}
	return res, nil
}

// buildNative is RunNative up to the first goroutine: it checks the
// normalized cfg, sizes a fresh native memory, lays out the harness and
// builds the store.
func buildNative(cfg NativeConfig) (*registry.NativeHarness, Store, error) {
	if cfg.Procs < 1 || cfg.Procs > native.MaxSlots || cfg.Requests < 1 {
		return nil, nil, fmt.Errorf("service: native sizing out of range (procs=%d requests=%d)", cfg.Procs, cfg.Requests)
	}
	if err := cfg.Traffic.check(cfg.Requests); err != nil {
		return nil, nil, err
	}
	// Per slot: its stripes (whole lines on native, so up to 7 words of
	// padding each) and the waitfree store's Par and Rv rows, one line
	// each, inside the 128-word allowance.
	N := cfg.Procs
	mem := native.NewMem(1<<16 + N*(cfg.Traffic.Keys+cfg.Traffic.Tenants+128) + 2*N*cfg.Traffic.Keys)
	fam := registry.FamilyBaseline
	if cfg.Variant == WaitFree {
		fam = registry.FamilyMulti
	}
	h := registry.NewNativeHarness(fam, mem, N, native.ObsConfig{Metrics: cfg.Obs})
	st, err := NewStore(registry.NativeBackend(h.World), StoreConfig{
		Kind: cfg.Kind, Variant: cfg.Variant,
		Keys: cfg.Traffic.Keys, Tenants: cfg.Traffic.Tenants,
		Slots: N, Budget: cfg.Budget, Batch: cfg.Batch,
	})
	return h, st, err
}
