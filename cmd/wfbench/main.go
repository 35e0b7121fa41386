// Command wfbench regenerates the paper's tables and figures at full scale
// and prints them as text tables.
//
// Usage:
//
//	wfbench -exp all                 # everything (a few minutes)
//	wfbench -exp paper               # every paper experiment + BENCH_paper.json
//	wfbench -exp fig1                # one paper experiment (ids: internal/paper)
//	wfbench -exp sec34 -ops 50000    # Section 3.4 throughput comparison
//	wfbench -exp native              # real-hardware ops/sec vs a sync.Mutex
//	wfbench -exp service             # hot-key counter & rate limiter, both backends
//
// The paper experiments (fig1, fig8, sec34, retries, valois, ablations,
// ext, mwcas) are declared once in internal/paper, each with the paper's
// claim and a band over its rows. All their numbers are virtual time units
// (one unit per memory operation; see internal/sched); see EXPERIMENTS.md
// for the paper-versus-measured record.
package main

import (
	"bytes"
	"encoding/json"
	"flag"
	"fmt"
	"os"
	"path/filepath"
	"runtime"
	"text/tabwriter"
	"time"

	"repro/internal/arrival"
	"repro/internal/cover"
	"repro/internal/harness"
	"repro/internal/helping"
	"repro/internal/metrics"
	"repro/internal/paper"
	"repro/internal/prim"
	"repro/internal/prof"
	"repro/internal/registry"
	"repro/internal/scenario"
	"repro/internal/sched"
	"repro/internal/trace"
	"repro/internal/tracex"
	"repro/internal/workload"
)

// withTrace is the -trace flag: record the report runs' event logs and
// write span-model exports next to the BENCH_*.json files. withProgress is
// the -progress flag: live sweep progress on stderr. benchPolicy and
// benchArrival are the -policy/-arrival flags: the scheduling discipline
// and arrival trace for the report and sweep experiments (empty = the
// paper's strict-priority model with the legacy release shapes, keeping
// every BENCH_*.json byte-identical). The service* vars are the -exp
// service knobs: which service object, which variant, and the keyed
// traffic shape (hot-key count, Zipf skew, tenant count).
var (
	withTrace         bool
	withProgress      bool
	benchPolicy       string
	benchArrival      string
	serviceSel        string
	serviceVariantSel string
	serviceKeys       int
	serviceTenants    int
	serviceZipf       float64
)

func main() {
	exp := flag.String("exp", "all", "experiment: paper|fig1|fig8|sec34|retries|valois|ablations|ext|mwcas|report|sweep|core|native|service|all")
	ops := flag.Int("ops", 50000, "total operations for the sec34 experiments (the paper used 50000)")
	procs := flag.Int("procs", 4, "processors for the sec34 experiments (the paper used 4)")
	seed := flag.Int64("seed", 11, "random seed")
	sweepSeeds := flag.Int("sweepseeds", 3, "seeds per cell for the -exp sweep matrix")
	outdir := flag.String("outdir", ".", "directory for the BENCH_<object>.json run reports")
	coreBaseline := flag.String("corebaseline", "", "with -exp core: committed BENCH_core.json to gate ns/slice regressions against")
	cpuprofile := flag.String("cpuprofile", "", "write a CPU profile to this file")
	memprofile := flag.String("memprofile", "", "write an allocation profile to this file on exit")
	blockprofile := flag.String("blockprofile", "", "write a block (contention) profile to this file on exit")
	flag.BoolVar(&withProgress, "progress", false, "with -exp sweep: stream live progress (cells/sec, coverage, ETA) to stderr")
	flag.BoolVar(&withTrace, "trace", false, "with -exp report: also write TRACE_<object>.trace.json span exports (Perfetto)")
	flag.StringVar(&benchPolicy, "policy", "", "with -exp report/sweep: scheduling policy (default: the paper's strict-priority model)")
	flag.StringVar(&benchArrival, "arrival", "", "with -exp report/sweep: arrival trace for the burst releases (default: the legacy shapes)")
	flag.StringVar(&serviceSel, "service", "both", "with -exp service: service object (counter|limiter|both)")
	flag.StringVar(&serviceVariantSel, "variant", "all", "with -exp service: store variant (waitfree|atomic|lock|sharded|all)")
	flag.IntVar(&serviceKeys, "keys", 64, "with -exp service: hot-key space size")
	flag.IntVar(&serviceTenants, "tenants", 4, "with -exp service: tenant count for the rate limiter")
	flag.Float64Var(&serviceZipf, "zipf", 1.2, "with -exp service: Zipf skew of the key popularity (>1; <=1 disables skew)")
	flag.Parse()

	if _, err := sched.PolicyByName(benchPolicy); err != nil {
		fmt.Fprintf(os.Stderr, "wfbench: %v\n", err)
		os.Exit(1)
	}
	if benchArrival != "" {
		if _, err := arrival.ByName(benchArrival); err != nil {
			fmt.Fprintf(os.Stderr, "wfbench: %v\n", err)
			os.Exit(1)
		}
	}

	stopProf, err := prof.Start(*cpuprofile, *memprofile, *blockprofile)
	if err != nil {
		fmt.Fprintf(os.Stderr, "wfbench: %v\n", err)
		os.Exit(1)
	}
	// Idempotent: the defer covers error returns, the exit wrapper covers
	// os.Exit (which skips defers).
	defer stopProf()
	exit := func(code int) {
		stopProf()
		os.Exit(code)
	}

	if err := os.MkdirAll(*outdir, 0o755); err != nil {
		fmt.Fprintf(os.Stderr, "wfbench: %v\n", err)
		exit(1)
	}

	run := func(name string, f func() error) {
		switch *exp {
		case "all", name:
			if err := f(); err != nil {
				fmt.Fprintf(os.Stderr, "wfbench: %s: %v\n", name, err)
				exit(1)
			}
		}
	}
	sc := paper.Scale{Ops: *ops, Procs: *procs, Seed: *seed}
	if ex, ok := paper.Lookup(*exp); ok {
		run(*exp, func() error { return paperOne(ex, sc) })
	}
	run("paper", func() error { return paperAll(*outdir, sc) })
	run("report", func() error { return reports(*outdir, *seed) })
	run("sweep", func() error { return sweep(*outdir, *sweepSeeds) })
	run("core", func() error { return coreBench(*outdir, *coreBaseline) })
	run("native", func() error { return nativeBench(*outdir, *ops, *procs, *seed) })
	run("service", func() error { return serviceBench(*outdir, *ops, *procs, *seed) })
	stopProf()
}

func table(title string, header []string, rows [][]string) {
	fmt.Printf("\n== %s ==\n", title)
	w := tabwriter.NewWriter(os.Stdout, 2, 4, 2, ' ', 0)
	for i, h := range header {
		if i > 0 {
			fmt.Fprint(w, "\t")
		}
		fmt.Fprint(w, h)
	}
	fmt.Fprintln(w)
	for _, r := range rows {
		for i, c := range r {
			if i > 0 {
				fmt.Fprint(w, "\t")
			}
			fmt.Fprint(w, c)
		}
		fmt.Fprintln(w)
	}
	if err := w.Flush(); err != nil {
		fmt.Fprintf(os.Stderr, "wfbench: %v\n", err)
	}
}

// paperOne measures and prints one paper experiment.
func paperOne(ex paper.Experiment, sc paper.Scale) error {
	r, err := ex.Measure(sc)
	if err != nil {
		return err
	}
	printResult(r)
	if r.Band != "pass" {
		return fmt.Errorf("band failed")
	}
	return nil
}

// printResult prints an experiment's tables and band verdict.
func printResult(r paper.Result) {
	for _, t := range r.Tables {
		header, rows := t.Cells()
		table(t.Title, header, rows)
	}
	fmt.Printf("band: %s\n", r.Band)
}

// paperAll prints every paper experiment and writes the deterministic
// <outdir>/BENCH_paper.json; it fails if any band does.
func paperAll(outdir string, sc paper.Scale) error {
	d, err := paper.RunAll(sc)
	if err != nil {
		return err
	}
	var failed []string
	for _, r := range d.Experiments {
		printResult(r)
		if r.Band != "pass" {
			failed = append(failed, r.ID)
		}
	}
	b, err := d.JSON()
	if err != nil {
		return err
	}
	path := filepath.Join(outdir, "BENCH_paper.json")
	if err := os.WriteFile(path, b, 0o644); err != nil {
		return err
	}
	fmt.Printf("wrote %s\n", path)
	if len(failed) > 0 {
		return fmt.Errorf("bands failed: %v", failed)
	}
	return nil
}

// reports runs a small adversarial workload over each core object and
// writes one machine-readable run report per object as
// <outdir>/BENCH_<object>.json: per-process step counts, CAS-failure
// counts, helping and preemption accounting, and response-time summaries.
// The runs are deterministic for a fixed seed, so the files are diffable
// across commits (see EXPERIMENTS.md "Run reports").
func reports(outdir string, seed int64) error {
	var written []string
	writeReport := func(r *metrics.Report) error {
		path := filepath.Join(outdir, "BENCH_"+string(r.Object)+".json")
		f, err := os.Create(path)
		if err != nil {
			return err
		}
		if err := r.WriteJSON(f); err != nil {
			f.Close()
			return err
		}
		if err := f.Close(); err != nil {
			return err
		}
		written = append(written, path)
		return nil
	}
	writeTrace := func(object string, log *trace.Log) error {
		if !withTrace || log == nil {
			return nil
		}
		b, err := tracex.Build(log).Perfetto()
		if err != nil {
			return err
		}
		path := filepath.Join(outdir, "TRACE_"+object+".trace.json")
		if err := os.WriteFile(path, b, 0o644); err != nil {
			return err
		}
		written = append(written, path)
		return nil
	}

	// The list kinds run the Section 3.4 workload at report scale. The
	// workload suite accepts the disciplines its interference model
	// covers (priority/fcfs/priority-fcfs); under any other policy, or a
	// non-default arrival trace (the workload driver owns its release
	// points), these reports are skipped (loudly) and only the registry
	// objects are measured.
	listKinds := []struct {
		kind  workload.Kind
		procs int
	}{
		{workload.WaitFree, 4},
		{workload.WaitFreeUni, 1},
		{workload.LockFreeGC, 4},
	}
	if benchArrival != "" || !workload.PolicyAccepted(benchPolicy) {
		listKinds = nil
		fmt.Fprintf(os.Stderr, "wfbench: skipping workload list reports (workload policies: %v, no -arrival override); registry objects only\n",
			workload.AcceptedPolicies())
	}
	for _, lk := range listKinds {
		res, err := workload.RunList(workload.ListConfig{
			Kind: lk.kind, Processors: lk.procs, BurstsPerCPU: 2, BurstOps: 10,
			TotalOps: 400, ListSize: 100, Seed: seed, EnableTrace: withTrace,
			Policy: benchPolicy,
		})
		if err != nil {
			return err
		}
		if err := writeReport(res.Report); err != nil {
			return err
		}
		if err := writeTrace(string(lk.kind), res.TraceLog); err != nil {
			return err
		}
	}

	// Every core object runs a priority-burst workload generated from its
	// registry descriptor: uniprocessor objects get a base worker plus two
	// staggered higher-priority bursts; multiprocessor objects one worker
	// per processor plus a burst per processor.
	for _, name := range registry.CoreNames() {
		s, err := objectReportRun(name, seed)
		if err != nil {
			return err
		}
		rep := s.Report(name)
		// Report stamps the (off-default) policy itself; the arrival trace
		// is driver knowledge. Both are empty on default runs, keeping the
		// committed BENCH_*.json goldens byte-identical.
		rep.Arrival = benchArrival
		if err := writeReport(rep); err != nil {
			return err
		}
		if err := writeTrace(name, s.Trace()); err != nil {
			return err
		}
	}

	for _, p := range written {
		fmt.Printf("wrote %s\n", p)
	}
	return nil
}

// objectReportRun executes the report workload for one core object and
// returns the completed simulation.
func objectReportRun(name string, seed int64) (*sched.Sim, error) {
	d := registry.Lookup0(name)
	procs := 1
	if d.Family == registry.FamilyMulti {
		procs = 2
	}
	pol, err := sched.PolicyByName(benchPolicy)
	if err != nil {
		return nil, err
	}
	// The burst releases come from the named arrival trace; the legacy
	// shape (slices 25 and 60) is kept verbatim when no trace is named.
	burstRel := []arrival.Release{{AfterSlices: 25}, {AfterSlices: 60}}
	if benchArrival != "" {
		trc, err := arrival.ByName(benchArrival)
		if err != nil {
			return nil, err
		}
		burstRel = trc.Releases(2, seed)
	}
	s := sched.New(sched.Config{Processors: procs, Seed: seed, MemWords: 1 << 18, EnableTrace: withTrace, Policy: pol})
	cfg := registry.Config{Procs: 4, Capacity: 128, Buckets: 4, Words: 4, Width: 2}
	if d.Model == registry.ModelSorted {
		cfg.SeedKeys = []uint64{2, 4, 6, 8, 10, 12, 14, 16}
	}
	inst, err := registry.Build(s, name, cfg)
	if err != nil {
		return nil, err
	}
	run := func(slot, n int) func(e *sched.Env) {
		ops := d.Ops(cfg, seed, slot, n)
		return func(e *sched.Env) {
			for _, op := range ops {
				start := e.Now()
				inst.Apply(e, slot, op)
				e.RecordOp(e.Now() - start)
			}
		}
	}
	if d.Family == registry.FamilyUni {
		s.Spawn(sched.JobSpec{Name: "base", CPU: 0, Prio: 1, Slot: 0, AfterSlices: -1, Cost: 20, Body: run(0, 20)})
		s.Spawn(sched.JobSpec{Name: "burst1", CPU: 0, Prio: 5, Slot: 1, AfterSlices: burstRel[0].AfterSlices, At: burstRel[0].At, Cost: 5, Body: run(1, 5)})
		s.Spawn(sched.JobSpec{Name: "burst2", CPU: 0, Prio: 9, Slot: 2, AfterSlices: burstRel[1].AfterSlices, At: burstRel[1].At, Cost: 5, Body: run(2, 5)})
	} else {
		s.Spawn(sched.JobSpec{Name: "w0", CPU: 0, Prio: 1, Slot: 0, AfterSlices: -1, Cost: 20, Body: run(0, 20)})
		s.Spawn(sched.JobSpec{Name: "w1", CPU: 1, Prio: 1, Slot: 1, AfterSlices: -1, Cost: 20, Body: run(1, 20)})
		s.Spawn(sched.JobSpec{Name: "burst0", CPU: 0, Prio: 9, Slot: 2, AfterSlices: burstRel[0].AfterSlices, At: burstRel[0].At, Cost: 5, Body: run(2, 5)})
		s.Spawn(sched.JobSpec{Name: "burst1", CPU: 1, Prio: 9, Slot: 3, AfterSlices: burstRel[1].AfterSlices, At: burstRel[1].At, Cost: 5, Body: run(3, 5)})
	}
	if err := s.Run(); err != nil {
		return nil, err
	}
	return s, nil
}

// sweepCell identifies one cell of the full-matrix sweep: an object, a CCAS
// implementation and helping mode (multiprocessor objects only), a
// preemption pattern and a seed.
type sweepCell struct {
	Object  string `json:"object"`
	CC      string `json:"cc,omitempty"`
	Mode    string `json:"mode,omitempty"`
	Pattern string `json:"pattern"`
	Seed    int64  `json:"seed"`
	// Policy and Arrival carry the -policy/-arrival flags into the cell
	// (empty on the default matrix, so cell identities are unchanged).
	Policy  string `json:"policy,omitempty"`
	Arrival string `json:"arrival,omitempty"`
}

// sweepCells enumerates the matrix over every core registry object. A
// -arrival flag replaces the legacy pattern axis with that single trace; a
// -policy flag runs every cell under that discipline.
func sweepCells(seeds int) []sweepCell {
	patterns := scenario.Patterns()
	if benchArrival != "" {
		patterns = []string{benchArrival}
	}
	var out []sweepCell
	for _, name := range registry.CoreNames() {
		d := registry.Lookup0(name)
		for _, pat := range patterns {
			for seed := int64(1); seed <= int64(seeds); seed++ {
				if d.Family != registry.FamilyMulti {
					out = append(out, sweepCell{Object: name, Pattern: pat, Seed: seed, Policy: benchPolicy, Arrival: benchArrival})
					continue
				}
				for _, cc := range prim.All() {
					for _, mode := range []helping.Mode{helping.Cyclic, helping.Priority} {
						out = append(out, sweepCell{Object: name, CC: cc.Name(), Mode: mode.String(), Pattern: pat, Seed: seed, Policy: benchPolicy, Arrival: benchArrival})
					}
				}
			}
		}
	}
	return out
}

// sweepOut is one cell's canonical report bytes plus its behavioral
// signature (the coverage unit: cover.ReportSig of the same report).
type sweepOut struct {
	b   []byte
	sig uint64
}

// runSweepCell executes one cell and returns its canonical report bytes
// and coverage signature.
func runSweepCell(c sweepCell) (sweepOut, error) {
	cfg := scenario.Config{Object: c.Object, Seed: c.Seed, Pattern: c.Pattern, Policy: c.Policy}
	if c.CC != "" {
		impl, err := prim.ByName(c.CC)
		if err != nil {
			return sweepOut{}, err
		}
		cfg.CC = impl
	}
	if c.Mode == helping.Priority.String() {
		cfg.Mode = helping.Priority
	}
	s, err := scenario.Run(cfg)
	if err != nil {
		return sweepOut{}, err
	}
	rep := s.Report(c.Object)
	// Key the report (and so its signature) by the explicit arrival trace;
	// empty on the default matrix keeps the bytes and sigs unchanged.
	rep.Arrival = c.Arrival
	b, err := rep.JSON()
	out := sweepOut{b: b, sig: cover.ReportSig(rep)}
	sched.Release(s)
	return out, err
}

// sweep runs the full object × CCAS × helping-mode × pattern × seed matrix
// twice — serially and fanned out across all cores via internal/harness —
// asserts the merged outputs are byte-identical, and records both wall-clock
// times (the repo's first real-parallelism figure) plus the campaign's
// schedule-space coverage (internal/cover, folded from the merged results
// in input order so it is identical at any worker count) in
// <outdir>/BENCH_sweep.json.
func sweep(outdir string, seeds int) error {
	cells := sweepCells(seeds)
	timed := func(workers int, label string) ([]sweepOut, time.Duration, error) {
		var meter *cover.Meter
		if withProgress {
			meter = cover.NewMeter(os.Stderr, "sweep "+label, len(cells), 0)
		}
		start := time.Now()
		out, err := harness.Map(len(cells),
			harness.Options{Workers: workers, OnDone: func(int) { meter.Done() }},
			func(i int) (sweepOut, error) {
				o, err := runSweepCell(cells[i])
				meter.Note(o.sig)
				return o, err
			})
		meter.Finish()
		return out, time.Since(start), err
	}
	serial, serialDur, err := timed(1, "serial")
	if err != nil {
		return fmt.Errorf("serial sweep: %w", err)
	}
	// At least two workers even on a single-core host, so the concurrent
	// dispatch/merge path is always exercised; on >= 2 cores the same
	// setting is where the wall-clock speedup comes from.
	workers := runtime.GOMAXPROCS(0)
	if workers < 2 {
		workers = 2
	}
	parallel, parallelDur, err := timed(workers, "parallel")
	if err != nil {
		return fmt.Errorf("parallel sweep: %w", err)
	}
	for i := range cells {
		if !bytes.Equal(serial[i].b, parallel[i].b) || serial[i].sig != parallel[i].sig {
			return fmt.Errorf("sweep cell %+v: parallel report differs from serial report", cells[i])
		}
	}
	// Coverage folds from the merged (input-order) results, so the two
	// runs produce one identical Stats; the byte-identity loop above has
	// already proven per-cell signature agreement.
	acc := cover.NewAccumulator()
	for i := range cells {
		acc.Add(serial[i].sig)
	}
	cov := acc.Stats()
	doc := struct {
		Cells      int     `json:"cells"`
		Workers    int     `json:"workers"`
		SerialMs   float64 `json:"serial_ms"`
		ParallelMs float64 `json:"parallel_ms"`
		Speedup    float64 `json:"speedup"`
		Identical  bool    `json:"byte_identical"`
		// Policy and Arrival record the matrix's scheduling discipline and
		// arrival trace when off the defaults (omitted otherwise, keeping
		// the committed BENCH_sweep.json stable).
		Policy   string      `json:"policy,omitempty"`
		Arrival  string      `json:"arrival,omitempty"`
		Coverage cover.Stats `json:"coverage"`
	}{
		Cells:      len(cells),
		Workers:    workers,
		SerialMs:   float64(serialDur.Microseconds()) / 1000,
		ParallelMs: float64(parallelDur.Microseconds()) / 1000,
		Speedup:    float64(serialDur) / float64(parallelDur),
		Identical:  true,
		Policy:     benchPolicy,
		Arrival:    benchArrival,
		Coverage:   cov,
	}
	b, err := json.MarshalIndent(doc, "", "  ")
	if err != nil {
		return err
	}
	path := filepath.Join(outdir, "BENCH_sweep.json")
	if err := os.WriteFile(path, append(b, '\n'), 0o644); err != nil {
		return err
	}
	table("Full-matrix sweep — serial vs parallel harness (byte-identical merged reports)",
		[]string{"cells", "workers", "serial ms", "parallel ms", "speedup", "distinct behaviors"},
		[][]string{{
			fmt.Sprint(doc.Cells), fmt.Sprint(doc.Workers),
			fmt.Sprintf("%.1f", doc.SerialMs), fmt.Sprintf("%.1f", doc.ParallelMs),
			fmt.Sprintf("%.2fx", doc.Speedup),
			fmt.Sprintf("%d (%.1f%%)", cov.Distinct, 100*cov.Coverage),
		}})
	fmt.Printf("wrote %s\n", path)
	return nil
}
