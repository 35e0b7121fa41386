package main

// The -exp service experiment: the internal/service traffic subsystem on
// both backends. Both service objects (hot-key counter, token-bucket
// rate limiter) run in all four variants — wait-free on the registry's
// MWCAS object, plain atomic CAS, spinlock, and sharded/batched — first
// on the simulator (deterministic: byte-identical entries at a fixed
// seed, exact step counts, virtual-time percentiles), then natively
// (real goroutines, wall-clock latency histograms). The comparison table
// answers the serving-stack question — what does the wait-free guarantee
// cost per admission decision? — and the per-policy table shows the
// starvation story: how base-traffic latency degrades under each
// scheduling discipline while the wait-free bound keeps holding.

import (
	"encoding/json"
	"fmt"
	"os"
	"path/filepath"
	"runtime"

	"repro/internal/metrics"
	"repro/internal/sched"
	"repro/internal/service"
)

// serviceEntry is one (service, variant, backend) measurement.
type serviceEntry struct {
	Service string `json:"service"`
	Variant string `json:"variant"`
	// Backend is "sim" (virtual time; deterministic) or "native"
	// (wall-clock nanoseconds).
	Backend string `json:"backend"`
	Policy  string `json:"policy,omitempty"`
	Arrival string `json:"arrival,omitempty"`

	Requests int `json:"requests"`
	// Applied counts requests that reached a decision; Lost the requests
	// dropped at the wait-free retry cap; Admitted/Denied split the
	// limiter verdicts.
	Applied  int `json:"applied"`
	Lost     int `json:"lost,omitempty"`
	Admitted int `json:"admitted,omitempty"`
	Denied   int `json:"denied,omitempty"`
	Retries  int `json:"retries"`

	// BackendCalls is the shared-memory operations the variant spent;
	// Elapsed is virtual-time units (sim) or nanoseconds (native).
	BackendCalls uint64 `json:"backend_calls"`
	Elapsed      int64  `json:"elapsed"`

	// The rates are per second (native) or per 10^9 virtual-time units
	// (sim) — same arithmetic, documented scale difference.
	WritesPerSec       float64 `json:"writes_per_sec"`
	BackendCallsPerSec float64 `json:"backend_calls_per_sec"`
	AdmissionsPerSec   float64 `json:"admissions_per_sec,omitempty"`

	// P50/P95 digest the per-request hot-path latency (RecordOp virtual
	// time on sim; Begin→End nanoseconds on native).
	P50 int64 `json:"p50"`
	P95 int64 `json:"p95"`

	Report *metrics.Report `json:"report,omitempty"`
}

// servicePolicyRow is one line of the per-policy response-time table:
// the wait-free variant under one scheduling discipline, base versus
// burst traffic.
type servicePolicyRow struct {
	Policy  string `json:"policy"`
	Service string `json:"service"`

	BaseP50  int64 `json:"base_p50"`
	BaseP95  int64 `json:"base_p95"`
	BaseMax  int64 `json:"base_max"`
	BurstP50 int64 `json:"burst_p50"`
	BurstP95 int64 `json:"burst_p95"`
	Lost     int   `json:"lost,omitempty"`

	// WaitFreeOK records that the run passed AssertWaitFree — the bound
	// holds under this discipline, whatever it does to the latencies.
	WaitFreeOK bool `json:"wait_free_ok"`
}

// serviceDoc is the BENCH_service.json payload.
type serviceDoc struct {
	Experiment string  `json:"experiment"`
	Seed       int64   `json:"seed"`
	Procs      int     `json:"procs"`
	GoMaxProcs int     `json:"gomaxprocs"`
	Keys       int     `json:"keys"`
	Tenants    int     `json:"tenants"`
	Zipf       float64 `json:"zipf"`

	Entries     []serviceEntry     `json:"entries"`
	PolicyTable []servicePolicyRow `json:"policy_table,omitempty"`
}

// serviceKinds resolves the -service flag.
func serviceKinds(sel string) ([]service.Kind, error) {
	switch sel {
	case "", "both", "all":
		return service.Kinds(), nil
	case string(service.Counter):
		return []service.Kind{service.Counter}, nil
	case string(service.Limiter):
		return []service.Kind{service.Limiter}, nil
	}
	return nil, fmt.Errorf("unknown -service %q (counter|limiter|both)", sel)
}

// serviceVariants resolves the -variant flag.
func serviceVariants(sel string) ([]service.Variant, error) {
	if sel == "" || sel == "all" {
		return service.Variants(), nil
	}
	for _, v := range service.Variants() {
		if sel == string(v) {
			return []service.Variant{v}, nil
		}
	}
	return nil, fmt.Errorf("unknown -variant %q (waitfree|atomic|lock|sharded|all)", sel)
}

func simServiceEntry(res *service.SimResult) serviceEntry {
	return serviceEntry{
		Service: string(res.Cfg.Kind), Variant: string(res.Cfg.Variant), Backend: "sim",
		Policy: res.Cfg.Policy, Arrival: res.Cfg.Arrival,
		Requests: res.Requests, Applied: res.Applied, Lost: res.Lost,
		Admitted: res.Admitted, Denied: res.Denied, Retries: res.Retries,
		BackendCalls: res.Steps, Elapsed: res.ElapsedVT,
		WritesPerSec:       metrics.Throughput(res.Applied, res.ElapsedVT),
		BackendCallsPerSec: metrics.Throughput(int(res.Steps), res.ElapsedVT),
		AdmissionsPerSec:   metrics.Throughput(res.Admitted, res.ElapsedVT),
		P50:                res.Report.OpTime.P50,
		P95:                res.Report.OpTime.P95,
		Report:             res.Report,
	}
}

func nativeServiceEntry(res *service.NativeResult) serviceEntry {
	e := serviceEntry{
		Service: string(res.Cfg.Kind), Variant: string(res.Cfg.Variant), Backend: "native",
		Policy: benchPolicy, Arrival: benchArrival,
		Requests: res.Requests, Applied: res.Applied, Lost: res.Lost,
		Admitted: res.Admitted, Denied: res.Denied, Retries: res.Retries,
		BackendCalls: res.Steps, Elapsed: res.Elapsed.Nanoseconds(),
		WritesPerSec:       metrics.Throughput(res.Applied, res.Elapsed.Nanoseconds()),
		BackendCallsPerSec: metrics.Throughput(int(res.Steps), res.Elapsed.Nanoseconds()),
		AdmissionsPerSec:   metrics.Throughput(res.Admitted, res.Elapsed.Nanoseconds()),
		Report:             res.Report,
	}
	if res.Report != nil {
		e.P50 = res.Report.OpTime.P50
		e.P95 = res.Report.OpTime.P95
	}
	return e
}

// serviceBench runs the full matrix and writes BENCH_service.json; it
// fails if any per-policy row violates the wait-free bound.
func serviceBench(outdir string, totalOps, procs int, seed int64) error {
	kinds, err := serviceKinds(serviceSel)
	if err != nil {
		return err
	}
	variants, err := serviceVariants(serviceVariantSel)
	if err != nil {
		return err
	}
	traffic := service.TrafficConfig{
		Keys: serviceKeys, Tenants: serviceTenants, Zipf: serviceZipf,
	}.Normalized()

	// Simulator scale: requests per base worker, derived from -ops but
	// clamped so the deterministic runs stay interactive at the default.
	simReqs := totalOps / 8
	if simReqs < 50 {
		simReqs = 50
	}
	if simReqs > 400 {
		simReqs = 400
	}
	nativePer := totalOps / procs
	if nativePer < 1 {
		nativePer = 1
	}

	doc := serviceDoc{
		Experiment: "service", Seed: seed, Procs: procs,
		GoMaxProcs: runtime.GOMAXPROCS(0),
		Keys:       traffic.Keys, Tenants: traffic.Tenants, Zipf: traffic.Zipf,
	}

	for _, kind := range kinds {
		for _, variant := range variants {
			simRes, err := service.RunSim(service.SimConfig{
				Kind: kind, Variant: variant,
				Processors: 2, Requests: simReqs, BurstRequests: simReqs / 4,
				Traffic: traffic, Seed: seed,
				Policy: benchPolicy, Arrival: benchArrival,
			})
			if err != nil {
				return fmt.Errorf("service sim %s/%s: %w", kind, variant, err)
			}
			doc.Entries = append(doc.Entries, simServiceEntry(simRes))

			natRes, err := service.RunNative(service.NativeConfig{
				Kind: kind, Variant: variant,
				Procs: procs, Requests: nativePer,
				Traffic: traffic, Seed: seed, Obs: true,
			})
			if err != nil {
				return fmt.Errorf("service native %s/%s: %w", kind, variant, err)
			}
			doc.Entries = append(doc.Entries, nativeServiceEntry(natRes))
		}
	}

	// Per-policy response-time comparison (the PR 8 starvation story on a
	// service-shaped workload): the wait-free variant under every shipped
	// discipline, with AssertWaitFree checked on each run. Only the
	// default arrival participates when the user pinned one explicitly.
	var violated []string
	for _, pol := range sched.PolicyNames() {
		for _, kind := range kinds {
			res, err := service.RunSim(service.SimConfig{
				Kind: kind, Variant: service.WaitFree,
				Processors: 2, Requests: simReqs, BurstRequests: simReqs / 4,
				Traffic: traffic, Seed: seed,
				Policy: pol, Arrival: benchArrival,
			})
			if err != nil {
				return fmt.Errorf("service policy table %s/%s: %w", pol, kind, err)
			}
			wfErr := res.AssertWaitFree()
			if wfErr != nil {
				fmt.Fprintf(os.Stderr, "wfbench: service %s/%s: %v\n", pol, kind, wfErr)
				violated = append(violated, pol+"/"+string(kind))
			}
			doc.PolicyTable = append(doc.PolicyTable, servicePolicyRow{
				Policy: pol, Service: string(kind),
				BaseP50: res.BaseOpTime.P50, BaseP95: res.BaseOpTime.P95, BaseMax: res.BaseOpTime.Max,
				BurstP50: res.BurstOpTime.P50, BurstP95: res.BurstOpTime.P95,
				Lost:       res.Lost,
				WaitFreeOK: wfErr == nil,
			})
		}
	}

	printService(&doc)

	path := filepath.Join(outdir, "BENCH_service.json")
	f, err := os.Create(path)
	if err != nil {
		return err
	}
	enc := json.NewEncoder(f)
	enc.SetIndent("", "  ")
	if err := enc.Encode(&doc); err != nil {
		f.Close()
		return err
	}
	if err := f.Close(); err != nil {
		return err
	}
	fmt.Printf("\nwrote %s\n", path)
	if len(violated) > 0 {
		return fmt.Errorf("wait-free bound violated (policy/service): %v", violated)
	}
	return nil
}

// printService renders the variant comparison and the per-policy
// starvation table.
func printService(doc *serviceDoc) {
	rows := make([][]string, 0, len(doc.Entries))
	for _, e := range doc.Entries {
		admitted := "-"
		if e.Service == string(service.Limiter) {
			admitted = fmt.Sprintf("%d", e.Admitted)
		}
		rows = append(rows, []string{
			e.Service, e.Variant, e.Backend,
			fmt.Sprintf("%d", e.Requests),
			fmt.Sprintf("%.0f", e.WritesPerSec),
			fmt.Sprintf("%.0f", e.BackendCallsPerSec),
			admitted,
			fmt.Sprintf("%d", e.Lost),
			fmt.Sprintf("%d", e.Retries),
			fmt.Sprintf("%d", e.P50),
			fmt.Sprintf("%d", e.P95),
		})
	}
	table(fmt.Sprintf("Service traffic: hot-key counter & rate limiter (keys=%d tenants=%d zipf=%.2f; sim rates per 1e9 vt, native per second)",
		doc.Keys, doc.Tenants, doc.Zipf),
		[]string{"service", "variant", "backend", "reqs", "writes/s", "calls/s", "admits", "lost", "retries", "p50", "p95"},
		rows)

	if len(doc.PolicyTable) == 0 {
		return
	}
	prows := make([][]string, 0, len(doc.PolicyTable))
	for _, r := range doc.PolicyTable {
		ok := "ok"
		if !r.WaitFreeOK {
			ok = "VIOLATED"
		}
		prows = append(prows, []string{
			r.Policy, r.Service,
			fmt.Sprintf("%d", r.BaseP50), fmt.Sprintf("%d", r.BaseP95), fmt.Sprintf("%d", r.BaseMax),
			fmt.Sprintf("%d", r.BurstP50), fmt.Sprintf("%d", r.BurstP95),
			fmt.Sprintf("%d", r.Lost), ok,
		})
	}
	table("Per-policy response times, wait-free variant (virtual time; base = steady priority-1 traffic, burst = priority-9 arrivals)",
		[]string{"policy", "service", "base p50", "base p95", "base max", "burst p50", "burst p95", "lost", "bound"},
		prows)
}
