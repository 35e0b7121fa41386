// Command bench is the repository's benchmark: four workloads that drive the
// wait-free objects through their public entry points and time them from
// outside, layer by layer. See README.md for the workloads, the metrics and
// how to read them.
//
// Usage (from this directory; bench/run.sh builds and runs it from the
// repository root):
//
//	go run . -workload list-read [-seed 11] [-seconds 25] [-trace 1] [-outdir d]
//	go run . -workload all -repeat 10
//
// The last line of standard output is one JSON object with the keys correct,
// attempted, failed and metrics: the end-to-end metrics, or with -trace 1
// the per-layer ones. The line before it records the commit, Go version,
// host and command line.
package main

import (
	"bufio"
	"bytes"
	"encoding/json"
	"flag"
	"fmt"
	"io"
	"math"
	"os"
	"os/exec"
	"path/filepath"
	"runtime"
	"sort"
	"strconv"
	"strings"
	"time"
)

var workloadNames = []string{"list-read", "queue-backlog", "counter-hot", "sim-verify"}

// runConfig is one workload run.
type runConfig struct {
	workload string
	seed     int64
	seconds  float64
	traced   bool
	// scale multiplies every op budget; the smoke test runs at 1%.
	scale  float64
	outdir string
}

func main() {
	cfg := runConfig{scale: 1}
	var trace, repeat int
	flag.StringVar(&cfg.workload, "workload", "", "workload: "+strings.Join(workloadNames, ", ")+"; with -repeat also all")
	flag.Int64Var(&cfg.seed, "seed", 11, "seed of every generated input")
	flag.Float64Var(&cfg.seconds, "seconds", 25, "how long the measured rounds run")
	flag.IntVar(&trace, "trace", 0, "1 runs traced: per-layer metrics, and spans written to <outdir>/<workload>.trace.json")
	flag.StringVar(&cfg.outdir, "outdir", ".bench_build", "directory for the span traces")
	flag.IntVar(&repeat, "repeat", 0, "run each workload this many times in fresh processes, seeds seed, seed+1, ..., and summarize")
	flag.Parse()
	if trace != 0 && trace != 1 {
		fmt.Fprintln(os.Stderr, "bench: -trace takes 0 or 1")
		os.Exit(2)
	}
	cfg.traced = trace == 1
	if repeat > 0 {
		os.Exit(repeatMain(cfg, repeat))
	}
	os.Exit(runMain(os.Stdout, cfg))
}

// run executes one workload and returns what it measured. A non-nil error
// means an oracle or the program failed; the result then carries only the
// attempted and failed counts.
func run(cfg runConfig) (*result, *tracer, error) {
	res := newResult()
	var tr *tracer
	if cfg.traced {
		tr = &tracer{}
	}
	deadline := now() + int64(cfg.seconds*1e9)
	h := &host{}
	if cfg.workload == "sim-verify" {
		if err := simVerify(cfg, deadline, res, tr, h); err != nil {
			return res, tr, err
		}
	} else {
		spec, ok := nativeWorkloads[cfg.workload]
		if !ok {
			return res, tr, unknownWorkload(cfg.workload)
		}
		ns, agg, err := runNative(cfg, spec, deadline, tr, h)
		if err != nil {
			return res, tr, err
		}
		agg.report(res)
		ns.report(res)
		for _, o := range ns.spans {
			tr.add(o.spans()...)
		}
		if cfg.workload == "counter-hot" {
			reqs := float64(ns.tally.ops)
			res.set("service.retries_per_req", float64(ns.tally.retries)/reqs)
			res.set("service.steps_per_req", float64(ns.tally.counts.Steps())/reqs)
			res.set("service.lost", float64(res.failed))
		}
	}
	res.setN("bench.host_slowdown", median(h.slowdowns), len(h.slowdowns))
	return res, tr, nil
}

// output is the result line.
type output struct {
	Correct   bool                   `json:"correct"`
	Attempted int                    `json:"attempted"`
	Failed    int                    `json:"failed"`
	Metrics   map[string]metricValue `json:"metrics"`
}

func runMain(w io.Writer, cfg runConfig) int {
	res, tr, err := run(cfg)
	var metrics map[string]metricValue
	if err == nil {
		metrics, err = res.collect(cfg.traced)
	}
	if err == nil && cfg.traced {
		err = tr.write(filepath.Join(cfg.outdir, cfg.workload+".trace.json"))
	}
	if err == nil {
		for name, m := range metrics {
			if math.IsNaN(m.Value) || math.IsInf(m.Value, 0) {
				err = fmt.Errorf("metric %s is %v", name, m.Value)
			}
		}
	}
	if err != nil {
		fmt.Fprintf(os.Stderr, "bench: %s: %v\n", cfg.workload, err)
		printJSON(w, output{Attempted: res.attempted, Failed: max(res.failed, 1), Metrics: map[string]metricValue{}})
		return 1
	}
	names := make([]string, 0, len(metrics))
	for name := range metrics {
		names = append(names, name)
	}
	sort.Strings(names)
	for _, name := range names {
		m := metrics[name]
		line := fmt.Sprintf("%-34s %16.6g %s", name, m.Value, m.Unit)
		if n, ok := res.samples[name]; ok {
			line += fmt.Sprintf("  (n=%d)", n)
		}
		fmt.Fprintln(w, line)
	}
	printJSON(w, map[string]any{"meta": runMeta(cfg)})
	printJSON(w, output{Correct: true, Attempted: res.attempted, Failed: res.failed, Metrics: metrics})
	return 0
}

func printJSON(w io.Writer, v any) {
	b, err := json.Marshal(v)
	if err != nil {
		fmt.Fprintf(os.Stderr, "bench: %v\n", err)
		return
	}
	fmt.Fprintf(w, "%s\n", b)
}

// runMeta records where a result came from.
func runMeta(cfg runConfig) map[string]any {
	host, err := os.Hostname()
	if err != nil {
		host = "unknown"
	}
	return map[string]any{
		"commit":     commit(),
		"go_version": runtime.Version(),
		"gomaxprocs": runtime.GOMAXPROCS(0),
		"nproc":      runtime.NumCPU(),
		"hostname":   host,
		"workload":   cfg.workload,
		"seed":       cfg.seed,
		"command":    os.Args,
		"utc":        time.Now().UTC().Format(time.RFC3339),
	}
}

// commit reads HEAD from the repository's .git directory (this directory or
// its parent), so no process is started; "unknown" outside a checkout.
func commit() string {
	for _, dir := range []string{".git", filepath.Join("..", ".git")} {
		head, err := os.ReadFile(filepath.Join(dir, "HEAD"))
		if err != nil {
			continue
		}
		ref, isRef := strings.CutPrefix(strings.TrimSpace(string(head)), "ref: ")
		if !isRef {
			return ref
		}
		if b, err := os.ReadFile(filepath.Join(dir, ref)); err == nil {
			return strings.TrimSpace(string(b))
		}
		packed, _ := os.ReadFile(filepath.Join(dir, "packed-refs"))
		for _, line := range strings.Split(string(packed), "\n") {
			if hash, name, ok := strings.Cut(line, " "); ok && name == ref {
				return hash
			}
		}
	}
	return "unknown"
}

// resetPeakRSS restarts the kernel's peak-RSS mark (VmHWM) from the
// current RSS, so peakRSS reads the peak of the round that follows. Where
// the kernel refuses, peakRSS keeps reading the peak since process start,
// an upper bound.
func resetPeakRSS() {
	_ = os.WriteFile("/proc/self/clear_refs", []byte("5"), 0)
}

// peakRSS returns the process's peak resident set (VmHWM) in MiB.
func peakRSS() float64 {
	b, err := os.ReadFile("/proc/self/status")
	if err != nil {
		return 0
	}
	for _, line := range strings.Split(string(b), "\n") {
		if v, ok := strings.CutPrefix(line, "VmHWM:"); ok {
			kb, err := strconv.ParseFloat(strings.TrimSuffix(strings.TrimSpace(v), " kB"), 64)
			if err == nil {
				return kb / 1024
			}
		}
	}
	return 0
}

// repeatMain runs each workload n times in fresh processes and prints, per
// metric, the median, the quartiles as Python's statistics.quantiles(n=4)
// computes them, and the spread (Q3-Q1)/median, flagging end-to-end
// metrics whose spread exceeds their bound.
func repeatMain(cfg runConfig, n int) int {
	exe, err := os.Executable()
	if err != nil {
		fmt.Fprintf(os.Stderr, "bench: %v\n", err)
		return 1
	}
	workloads := []string{cfg.workload}
	if cfg.workload == "all" {
		workloads = workloadNames
	}
	defs := endToEnd
	trace := "0"
	if cfg.traced {
		defs, trace = perLayer, "1"
	}
	type stat struct {
		Median, Q1, Q3, Spread, Bound float64
		Over                          bool `json:",omitempty"`
		Values                        []float64
	}
	summary := map[string]map[string]stat{}
	code := 0
	for _, wl := range workloads {
		values := map[string][]float64{}
		for i := 0; i < n; i++ {
			seed := cfg.seed + int64(i)
			var out bytes.Buffer
			cmd := exec.Command(exe, "-workload", wl, "-seed", strconv.FormatInt(seed, 10),
				"-seconds", strconv.FormatFloat(cfg.seconds, 'f', -1, 64), "-trace", trace, "-outdir", cfg.outdir)
			cmd.Stdout, cmd.Stderr = &out, os.Stderr
			runErr := cmd.Run()
			var o output
			sc := bufio.NewScanner(&out)
			var last string
			for sc.Scan() {
				last = sc.Text()
			}
			if err := json.Unmarshal([]byte(last), &o); runErr != nil || err != nil || !o.Correct {
				fmt.Fprintf(os.Stderr, "bench: %s seed %d failed (%v)\n", wl, seed, runErr)
				code = 1
				continue
			}
			for name, m := range o.Metrics {
				values[name] = append(values[name], m.Value)
			}
		}
		fmt.Printf("\n== %s: %d runs, seeds %d..%d ==\n", wl, n, cfg.seed, cfg.seed+int64(n)-1)
		fmt.Printf("%-34s %14s %14s %14s %8s %6s\n", "metric", "median", "q1", "q3", "spread", "bound")
		summary[wl] = map[string]stat{}
		for _, d := range defs {
			vs := values[d.Name]
			if len(vs) < 2 {
				continue
			}
			q1, q3 := quartiles(vs)
			s := stat{Median: median(vs), Q1: q1, Q3: q3, Bound: d.Bound, Values: vs}
			if s.Median != 0 {
				s.Spread = (q3 - q1) / math.Abs(s.Median)
			}
			flag := ""
			if d.Bound > 0 && d.Name != "setup_s" && s.Spread > d.Bound {
				s.Over, flag = true, "  SPREAD EXCEEDS BOUND"
			}
			summary[wl][d.Name] = s
			fmt.Printf("%-34s %14.6g %14.6g %14.6g %8.4f %6.3g%s\n", d.Name, s.Median, q1, q3, s.Spread, d.Bound, flag)
		}
	}
	printJSON(os.Stdout, map[string]any{"meta": runMeta(cfg), "repeat": n, "summary": summary})
	return code
}

// quartiles returns Q1 and Q3 by Python's statistics.quantiles(data, n=4)
// (the default "exclusive" method), the definition the bounds in
// BENCHMARK.json are checked against.
func quartiles(data []float64) (q1, q3 float64) {
	d := append([]float64(nil), data...)
	sort.Float64s(d)
	ld, m := len(d), len(d)+1
	q := func(i int) float64 {
		j := min(max(i*m/4, 1), ld-1)
		delta := i*m - j*4
		return (d[j-1]*float64(4-delta) + d[j]*float64(delta)) / 4
	}
	return q(1), q(3)
}
