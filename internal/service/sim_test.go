package service

import (
	"fmt"
	"hash/fnv"
	"os"
	"path/filepath"
	"sort"
	"strings"
	"testing"

	"repro/internal/sched"
)

func simCfg(kind Kind, variant Variant) SimConfig {
	return SimConfig{
		Kind: kind, Variant: variant,
		Processors: 2, Requests: 60, BurstRequests: 15,
		Traffic: TrafficConfig{Keys: 16, Tenants: 3, WindowLen: 12},
		Budget:  10, Seed: 11,
	}
}

// TestSimAllVariants: every kind × variant completes on the simulator
// with the conservation oracles green and every request accounted for.
func TestSimAllVariants(t *testing.T) {
	for _, kind := range Kinds() {
		for _, variant := range Variants() {
			t.Run(string(kind)+"/"+string(variant), func(t *testing.T) {
				res, err := RunSim(simCfg(kind, variant))
				if err != nil {
					t.Fatal(err)
				}
				if res.Applied+res.Lost != res.Requests {
					t.Fatalf("applied %d + lost %d != requests %d", res.Applied, res.Lost, res.Requests)
				}
				if variant != WaitFree && res.Lost != 0 {
					t.Fatalf("%s variant lost %d requests", variant, res.Lost)
				}
				if res.Report.OpTime.Count != res.Requests {
					t.Fatalf("recorded %d op samples, want %d", res.Report.OpTime.Count, res.Requests)
				}
				if kind == Limiter && res.Admitted == 0 {
					t.Fatal("limiter admitted nothing")
				}
			})
		}
	}
}

// simFingerprint renders everything a simulator run produced —
// report JSON plus the driver's own aggregates — for byte-comparison.
func simFingerprint(t *testing.T, res *SimResult) string {
	t.Helper()
	rep, err := res.Report.JSON()
	if err != nil {
		t.Fatal(err)
	}
	keys := make([]TenantWindow, 0, len(res.Admits))
	for tw := range res.Admits {
		keys = append(keys, tw)
	}
	sort.Slice(keys, func(i, j int) bool {
		if keys[i].Tenant != keys[j].Tenant {
			return keys[i].Tenant < keys[j].Tenant
		}
		return keys[i].Window < keys[j].Window
	})
	admits := ""
	for _, tw := range keys {
		admits += fmt.Sprintf(" t%dw%d=%d", tw.Tenant, tw.Window, res.Admits[tw])
	}
	return fmt.Sprintf("%s\napplied=%d admitted=%d denied=%d lost=%d retries=%d steps=%d elapsed=%d totals=%v base=%v burst=%v admits=%s\n",
		rep, res.Applied, res.Admitted, res.Denied, res.Lost, res.Retries,
		res.Steps, res.ElapsedVT, res.Totals, res.BaseOpTime, res.BurstOpTime, admits)
}

// TestSimDeterministic: the simulator-backed run is byte-identical
// across repeated invocations at a fixed seed — the acceptance-criteria
// pin for BENCH_service.json's simulator entries.
func TestSimDeterministic(t *testing.T) {
	for _, variant := range Variants() {
		t.Run(string(variant), func(t *testing.T) {
			a, err := RunSim(simCfg(Limiter, variant))
			if err != nil {
				t.Fatal(err)
			}
			b, err := RunSim(simCfg(Limiter, variant))
			if err != nil {
				t.Fatal(err)
			}
			fa, fb := simFingerprint(t, a), simFingerprint(t, b)
			if fa != fb {
				t.Fatalf("repeated run diverged:\n--- first ---\n%s--- second ---\n%s", fa, fb)
			}
		})
	}
}

// TestSimWaitFreePolicies: the wait-free variant passes AssertWaitFree
// under every shipped scheduling policy, both kinds — the acceptance
// criterion that the bound survives discipline changes, not just the
// strict-priority default.
func TestSimWaitFreePolicies(t *testing.T) {
	for _, pol := range sched.PolicyNames() {
		for _, kind := range Kinds() {
			t.Run(pol+"/"+string(kind), func(t *testing.T) {
				cfg := simCfg(kind, WaitFree)
				cfg.Policy = pol
				res, err := RunSim(cfg)
				if err != nil {
					t.Fatal(err)
				}
				if err := res.AssertWaitFree(); err != nil {
					t.Fatal(err)
				}
			})
		}
	}
}

// TestSimArrivals: the service scenario runs under every arrival trace,
// including the new poisson template.
func TestSimArrivals(t *testing.T) {
	for _, arr := range []string{"stagger", "burst", "none", "bursty", "rate", "poisson"} {
		t.Run(arr, func(t *testing.T) {
			cfg := simCfg(Counter, Atomic)
			cfg.Arrival = arr
			res, err := RunSim(cfg)
			if err != nil {
				t.Fatal(err)
			}
			if res.Report.Arrival != arr {
				t.Fatalf("report arrival %q, want %q", res.Report.Arrival, arr)
			}
		})
	}
}

// TestSimGolden pins one fixed-seed simulator scenario byte-for-byte.
// Regenerate with WF_UPDATE_GOLDEN=1.
func TestSimGolden(t *testing.T) {
	res, err := RunSim(SimConfig{
		Kind: Limiter, Variant: WaitFree,
		Processors: 2, Requests: 50, BurstRequests: 12,
		Traffic: TrafficConfig{Keys: 16, Tenants: 3, WindowLen: 10},
		Budget:  8, Seed: 7,
	})
	if err != nil {
		t.Fatal(err)
	}
	got := simFingerprint(t, res)
	golden := filepath.Join("testdata", "service_sim.golden")
	if os.Getenv("WF_UPDATE_GOLDEN") != "" {
		if err := os.MkdirAll(filepath.Dir(golden), 0o755); err != nil {
			t.Fatal(err)
		}
		if err := os.WriteFile(golden, []byte(got), 0o644); err != nil {
			t.Fatal(err)
		}
		t.Logf("golden updated: %s", golden)
		return
	}
	want, err := os.ReadFile(golden)
	if err != nil {
		t.Fatalf("missing golden (run with WF_UPDATE_GOLDEN=1 to create): %v", err)
	}
	if got != string(want) {
		t.Errorf("service sim run diverged from golden %s:\n--- got ---\n%s--- want ---\n%s", golden, got, want)
	}
}

// TestSimDigests pins every store's simulator run byte-for-byte: the
// FNV-64a digest of simFingerprint at simCfg's sizes for each kind ×
// variant × policy × arrival cell. Regenerate with WF_UPDATE_GOLDEN=1.
func TestSimDigests(t *testing.T) {
	var got strings.Builder
	for _, kind := range Kinds() {
		for _, variant := range Variants() {
			for _, pol := range sched.PolicyNames() {
				for _, arr := range []string{"bursty", "stagger", "poisson"} {
					cfg := simCfg(kind, variant)
					cfg.Policy, cfg.Arrival = pol, arr
					res, err := RunSim(cfg)
					if err != nil {
						t.Fatalf("%s/%s/%s/%s: %v", kind, variant, pol, arr, err)
					}
					h := fnv.New64a()
					h.Write([]byte(simFingerprint(t, res)))
					fmt.Fprintf(&got, "%s/%s/%s/%s %016x\n", kind, variant, pol, arr, h.Sum64())
				}
			}
		}
	}
	golden := filepath.Join("testdata", "service_sim_digests.golden")
	if os.Getenv("WF_UPDATE_GOLDEN") != "" {
		if err := os.WriteFile(golden, []byte(got.String()), 0o644); err != nil {
			t.Fatal(err)
		}
		t.Logf("golden updated: %s", golden)
		return
	}
	want, err := os.ReadFile(golden)
	if err != nil {
		t.Fatalf("missing golden (run with WF_UPDATE_GOLDEN=1 to create): %v", err)
	}
	if got.String() != string(want) {
		t.Errorf("service sim digests diverged from golden %s:\n--- got ---\n%s--- want ---\n%s", golden, got.String(), want)
	}
}
