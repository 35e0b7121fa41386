// Command wftrace runs a named scenario and inspects its causal structure:
// operation spans (invoke → announce → linearization → response), scheduler
// slices, helping edges and CAS-failure edges, reconstructed from the run's
// event log by internal/tracex.
//
// Usage:
//
//	wftrace -object uniqueue -seed 1                  # span report on stdout
//	wftrace -object unilist -pattern stagger -export perfetto -o fig2.trace.json
//	wftrace -object multiqueue -export text           # deterministic text form
//	wftrace -object unilist -export gantt             # Figure 2: event log + Gantt chart
//	wftrace -object unilist -export csv               # raw event log as CSV
//	wftrace -linz -object uniqueue -seed 7 -strategy pct  # replay an adversary schedule
//
// The -linz mode replays one randomized adversary schedule (the same
// (object, seed, strategy) triple wfcheck -linz reports on failure),
// prints the recorded black-box history, the engine's verdict, and — when
// the history is not linearizable — the counterexample window as a span
// tree. -export still works: the exported span model is the adversary
// run's trace.
//
// The -native mode runs the object on the native backend (real goroutines,
// internal/native) with the flight recorder on, drains the per-goroutine
// rings into the same span model, and exports it — so a real-hardware run
// is inspectable with the same tooling as a simulated one. Times are
// wall-clock nanoseconds there, virtual units everywhere else.
//
// The perfetto export is Chrome trace-event JSON: open it at ui.perfetto.dev
// or chrome://tracing.
//
//	wftrace -native -object uniqueue -procs 4 -ops 10 -export perfetto
package main

import (
	"bytes"
	"flag"
	"fmt"
	"os"
	"strings"

	"repro/internal/arrival"
	"repro/internal/linz"
	"repro/internal/linz/adversary"
	"repro/internal/registry"
	"repro/internal/scenario"
	"repro/internal/sched"
	"repro/internal/trace"
	"repro/internal/tracex"
)

func main() {
	object := flag.String("object", "unilist", "object: "+strings.Join(scenario.Objects(), "|"))
	seed := flag.Int64("seed", 1, "simulation seed")
	pat := flag.String("pattern", "stagger", "preemption pattern: "+strings.Join(scenario.Patterns(), "|"))
	policy := flag.String("policy", "", "scheduling policy (default: the paper's strict-priority model)")
	arrivalName := flag.String("arrival", "", "arrival trace for the adversary/burst releases: "+strings.Join(arrival.Names(), "|")+" (default: -pattern)")
	export := flag.String("export", "", "also export the trace: perfetto|text|gantt|csv")
	out := flag.String("o", "", "export path (default <object>.trace.<json|txt|gantt.txt|csv>)")
	report := flag.Bool("report", false, "print the run report after the span summary")
	linzMode := flag.Bool("linz", false, "replay one randomized adversary schedule and print its black-box history and verdict")
	strategy := flag.String("strategy", "uniform", "adversary strategy in -linz mode: uniform|pct")
	nativeMode := flag.Bool("native", false, "record a native-backend run (flight recorder) instead of a simulation")
	procs := flag.Int("procs", 4, "goroutines in -native mode")
	ops := flag.Int("ops", 10, "operations per goroutine in -native mode")
	flag.Parse()

	var err error
	switch {
	case *linzMode:
		if *arrivalName != "" {
			err = fmt.Errorf("-arrival shapes scenario releases; -linz generates its own randomized schedule")
		} else {
			err = runLinz(*object, *seed, *strategy, *policy, *export, *out)
		}
	case *nativeMode:
		if *policy != "" || *arrivalName != "" {
			err = fmt.Errorf("-policy/-arrival configure the simulator; the native backend runs under the host scheduler")
		} else {
			err = runNative(*object, *seed, *procs, *ops, *export, *out, *report)
		}
	default:
		err = run(*object, *seed, *pat, *policy, *arrivalName, *export, *out, *report)
	}
	if err != nil {
		fmt.Fprintf(os.Stderr, "wftrace: %v\n", err)
		os.Exit(1)
	}
}

// runNative executes one observed native run and exports the drained
// flight recording through the standard span pipeline.
func runNative(object string, seed int64, procs, ops int, export, out string, report bool) error {
	d, err := registry.Lookup(object)
	if err != nil {
		return err
	}
	cfg := d.StressConfig(procs)
	cfg.Check = false // white-box checkers are simulator-only
	if d.Name != "herlihy" {
		cfg.Capacity = 0 // size node pools to the op budget
	}
	res, err := d.RunNative(registry.NativeRun{
		Procs: procs, Ops: ops, Seed: seed, Cfg: cfg,
		Obs: true, Recorder: true,
	})
	if err != nil {
		return err
	}
	t := tracex.Build(res.TraceLog)

	fmt.Printf("%s seed=%d native procs=%d ops=%d: %d events (%d dropped), %d slices, %d operations, %v\n",
		object, seed, procs, ops, res.TraceLog.Len(), res.DroppedEvents,
		len(t.SliceSpans()), len(t.OpSpans()), res.Elapsed)
	fmt.Println()
	printOps(t)
	printEdges(t)

	if report {
		fmt.Println()
		if err := res.Report.WriteText(os.Stdout); err != nil {
			return err
		}
	}

	return exportTrace(res.TraceLog, t, export, out, object+".native")
}

// runLinz replays one adversary schedule with tracing on: the reproducer
// path for wfcheck -linz failures.
func runLinz(object string, seed int64, strategy, policy, export, out string) error {
	strat, err := adversary.ParseStrategy(strategy)
	if err != nil {
		return err
	}
	r, err := adversary.Execute(adversary.Config{Object: object, Seed: seed, Strategy: strat, Policy: policy, Trace: true})
	if err != nil {
		return err
	}
	verdict, err := r.Check(linz.Options{})
	if err != nil {
		return err
	}

	fmt.Printf("%s seed=%d strategy=%s%s: %d slices\n\n", object, seed, strat, policySuffix(r.Sim.Policy()), r.Sim.Slices())
	fmt.Print(r.History.Text())
	fmt.Printf("\nverdict: %s\n", verdict.Summary())
	if !verdict.OK {
		fmt.Println()
		fmt.Print(verdict.Counterexample.Tree(r.History))
	}

	return exportTrace(r.Sim.Trace(), tracex.Build(r.Sim.Trace()), export, out, object+".linz")
}

func run(object string, seed int64, pat, policy, arrivalName, export, out string, report bool) error {
	s, err := scenario.Run(scenario.Config{Object: object, Seed: seed, Pattern: pat, Arrival: arrivalName, Policy: policy, Trace: true})
	if err != nil {
		return err
	}
	t := tracex.Build(s.Trace())

	// An explicit -arrival supersedes -pattern as the release-shape label;
	// the off-default policy rides as a suffix. Default runs keep the
	// historical header byte-for-byte (the wftrace golden).
	label := pat
	if arrivalName != "" {
		label = arrivalName
	}
	fmt.Printf("%s seed=%d pattern=%s%s: %d events, %d slices, %d operations\n",
		object, seed, label, policySuffix(s.Policy()), s.Trace().Len(), len(t.SliceSpans()), len(t.OpSpans()))
	fmt.Println()
	printOps(t)
	printEdges(t)

	if report {
		fmt.Println()
		if err := s.Report(object).WriteText(os.Stdout); err != nil {
			return err
		}
	}

	return exportTrace(s.Trace(), t, export, out, object)
}

// exportTrace writes the run's trace in the named format to out, or to
// <stem>.trace.<ext> when out is empty: perfetto and text render the span
// model t; gantt is the raw event log followed by a per-process Gantt
// chart (the paper's Figure 2 view); csv is the raw event log as CSV.
func exportTrace(log *trace.Log, t *tracex.Trace, export, out, stem string) error {
	var b []byte
	var ext string
	switch export {
	case "":
		return nil
	case "perfetto":
		var err error
		if b, err = t.Perfetto(); err != nil {
			return err
		}
		ext = "json"
	case "text":
		b, ext = []byte(t.Text()), "txt"
	case "gantt":
		var buf bytes.Buffer
		log.WriteTo(&buf) // a bytes.Buffer write cannot fail
		buf.WriteString("\n" + log.Gantt(72))
		b, ext = buf.Bytes(), "gantt.txt"
	case "csv":
		var buf bytes.Buffer
		if err := log.WriteCSV(&buf); err != nil {
			return err
		}
		b, ext = buf.Bytes(), "csv"
	default:
		return fmt.Errorf("unknown export format %q (want perfetto, text, gantt or csv)", export)
	}
	return write(defaultPath(out, stem+".trace."+ext), b)
}

// policySuffix renders " policy=<name>" for off-default policies and ""
// for the default, so historical headers stay byte-identical.
func policySuffix(p sched.Policy) string {
	if p == sched.DefaultPolicy() {
		return ""
	}
	return " policy=" + p.Name()
}

func defaultPath(out, fallback string) string {
	if out != "" {
		return out
	}
	return fallback
}

func write(path string, b []byte) error {
	if err := os.WriteFile(path, b, 0o644); err != nil {
		return err
	}
	fmt.Printf("\nwrote %s (%d bytes)\n", path, len(b))
	return nil
}

// printOps renders each operation span as a small tree: its lifecycle
// marks, then its interference breakdown.
func printOps(t *tracex.Trace) {
	fmt.Println("operations:")
	for _, sp := range t.OpSpans() {
		state := ""
		if sp.Open {
			state = "  [never completed]"
		}
		fmt.Printf("  op #%d  %s (slot %d, cpu%d)  t=[%d,%d]%s\n",
			sp.ID, sp.ProcName, sp.Slot, sp.CPU, sp.Start, sp.End, state)
		if sp.Announce != nil {
			fmt.Printf("  ├─ announce   t=%d\n", sp.Announce.Time)
		}
		if sp.Linearize != nil {
			who := "by owner"
			if sp.Linearize.Proc != sp.Proc {
				who = fmt.Sprintf("by helper proc %d", sp.Linearize.Proc)
			}
			fmt.Printf("  ├─ linearize  t=%d  %s (%s)\n", sp.Linearize.Time, sp.LinearizeKey, who)
		}
		fmt.Printf("  └─ interference: %d helps received, %d CAS failures, %d preemptions\n",
			sp.HelpsReceived, sp.CASFails, sp.Preemptions)
	}
}

// printEdges renders the causality edges and the helping-depth summary.
func printEdges(t *tracex.Trace) {
	help, casf := t.HelpEdges(), t.CASFailEdges()
	fmt.Printf("\ncausality: %d help edges, %d casfail edges, longest help chain %d\n",
		len(help), len(casf), t.LongestHelpChain())
	for _, e := range help {
		fmt.Printf("  help    proc %d → proc %d  (span #%d → #%d)  t=%d\n",
			e.FromProc, e.ToProc, e.From, e.To, e.Time)
	}
	for _, e := range casf {
		fmt.Printf("  casfail proc %d → proc %d  (span #%d → #%d)  addr=%d t=%d\n",
			e.FromProc, e.ToProc, e.From, e.To, e.Addr, e.Time)
	}
}
