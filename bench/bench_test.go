package main

import (
	"bytes"
	"encoding/json"
	"fmt"
	"os"
	"path/filepath"
	"reflect"
	"strings"
	"testing"
)

// benchmarkJSON is the part of ../BENCHMARK.json the tests pin.
type benchmarkJSON struct {
	Command   []string `json:"command"`
	Paths     []string `json:"paths"`
	Workloads []struct {
		Name string `json:"name"`
		Why  string `json:"why"`
	} `json:"workloads"`
	EndToEnd []metricDef `json:"end_to_end"`
	PerLayer []metricDef `json:"per_layer"`
}

func readBenchmarkJSON(t *testing.T) benchmarkJSON {
	t.Helper()
	b, err := os.ReadFile(filepath.Join("..", "BENCHMARK.json"))
	if err != nil {
		t.Fatal(err)
	}
	var doc benchmarkJSON
	if err := json.Unmarshal(b, &doc); err != nil {
		t.Fatal(err)
	}
	return doc
}

// TestBenchmarkJSONMatchesTables keeps BENCHMARK.json and the metric tables
// the program prints from identical.
func TestBenchmarkJSONMatchesTables(t *testing.T) {
	doc := readBenchmarkJSON(t)
	if !reflect.DeepEqual(doc.EndToEnd, endToEnd) {
		t.Errorf("end_to_end in BENCHMARK.json differs from the endToEnd table:\n%v\n%v", doc.EndToEnd, endToEnd)
	}
	if !reflect.DeepEqual(doc.PerLayer, perLayer) {
		t.Errorf("per_layer in BENCHMARK.json differs from the perLayer table")
	}
	var names []string
	for _, w := range doc.Workloads {
		names = append(names, w.Name)
	}
	if !reflect.DeepEqual(names, workloadNames) {
		t.Errorf("workloads %v, program has %v", names, workloadNames)
	}
	if !reflect.DeepEqual(doc.Paths, []string{"bench"}) || !reflect.DeepEqual(doc.Command, []string{"bash", "bench/run.sh"}) {
		t.Errorf("paths %v command %v", doc.Paths, doc.Command)
	}
}

// lastLine decodes the result line a run printed.
func lastLine(t *testing.T, out []byte) output {
	t.Helper()
	lines := strings.Split(strings.TrimSpace(string(out)), "\n")
	var o output
	if err := json.Unmarshal([]byte(lines[len(lines)-1]), &o); err != nil {
		t.Fatalf("result line: %v\n%s", err, out)
	}
	return o
}

// TestWorkloadsSmoke runs every workload at 1% of its budget, untraced and
// traced: the oracles must pass and every metric BENCHMARK.json names must
// be printed with its unit; a traced run must write its spans, each op's
// children lying inside its root span.
func TestWorkloadsSmoke(t *testing.T) {
	doc := readBenchmarkJSON(t)
	dir := t.TempDir()
	for _, wl := range workloadNames {
		for _, traced := range []bool{false, true} {
			t.Run(fmt.Sprintf("%s/traced=%v", wl, traced), func(t *testing.T) {
				t.Parallel()
				smoke(t, doc, dir, wl, traced)
			})
		}
	}
}

// smoke runs one workload at 1% of its budget and checks its output.
func smoke(t *testing.T, doc benchmarkJSON, dir, wl string, traced bool) {
	var buf bytes.Buffer
	cfg := runConfig{workload: wl, seed: 11, scale: 0.01, traced: traced, outdir: dir}
	if code := runMain(&buf, cfg); code != 0 {
		t.Fatalf("exit %d\n%s", code, buf.String())
	}
	o := lastLine(t, buf.Bytes())
	if !o.Correct || o.Failed != 0 || o.Attempted < 1 {
		t.Errorf("correct=%v attempted=%d failed=%d", o.Correct, o.Attempted, o.Failed)
	}
	defs := doc.EndToEnd
	if traced {
		defs = doc.PerLayer
	}
	if len(o.Metrics) != len(defs) {
		t.Errorf("%d metrics printed, BENCHMARK.json names %d", len(o.Metrics), len(defs))
	}
	for _, d := range defs {
		m, ok := o.Metrics[d.Name]
		if !ok || m.Unit != d.Unit {
			t.Errorf("metric %s printed as %+v (present %v), want unit %s", d.Name, m, ok, d.Unit)
		}
		if !traced && m.Value <= 0 {
			t.Errorf("end-to-end metric %s is %v", d.Name, m.Value)
		}
	}
	if traced {
		checkTraceFile(t, filepath.Join(dir, wl+".trace.json"), wl != "sim-verify")
	}
}

// checkTraceFile checks a written trace: every op's Begin, Apply and End
// spans lie inside its root span and leave it a non-negative self time.
func checkTraceFile(t *testing.T, path string, wantOps bool) {
	t.Helper()
	b, err := os.ReadFile(path)
	if err != nil {
		t.Fatal(err)
	}
	var doc struct {
		TraceEvents []struct {
			Name string            `json:"name"`
			Ts   float64           `json:"ts"`
			Dur  float64           `json:"dur"`
			Args map[string]uint64 `json:"args"`
		} `json:"traceEvents"`
	}
	if err := json.Unmarshal(b, &doc); err != nil {
		t.Fatalf("%s: %v", path, err)
	}
	type ival struct{ s, e float64 }
	roots := map[uint64]ival{}
	children := map[uint64][]ival{}
	for _, ev := range doc.TraceEvents {
		id := ev.Args["id"]
		if id == 0 {
			continue
		}
		iv := ival{ev.Ts, ev.Ts + ev.Dur}
		if strings.HasPrefix(ev.Name, "op.") {
			roots[id] = iv
		} else {
			children[id] = append(children[id], iv)
		}
	}
	if wantOps && len(roots) == 0 {
		t.Fatalf("%s: no op spans", path)
	}
	const eps = 1e-3 // µs: the JSON rounds nanoseconds
	for id, root := range roots {
		var sum float64
		for _, c := range children[id] {
			if c.s < root.s-eps || c.e > root.e+eps {
				t.Errorf("%s: op %d child [%v,%v] outside root [%v,%v]", path, id, c.s, c.e, root.s, root.e)
			}
			sum += c.e - c.s
		}
		if len(children[id]) != 3 || root.e-root.s-sum < -eps {
			t.Errorf("%s: op %d has %d children, self time %v", path, id, len(children[id]), root.e-root.s-sum)
		}
	}
}

// TestQuartilesMatchPython pins quartiles to Python's
// statistics.quantiles(data, n=4), the definition the bounds are checked
// against.
func TestQuartilesMatchPython(t *testing.T) {
	for _, tc := range []struct {
		data   []float64
		q1, q3 float64
	}{
		{[]float64{1, 2, 3, 4, 5, 6, 7, 8, 9, 10}, 2.75, 8.25},
		{[]float64{5, 1, 4, 2.5, 9}, 1.75, 7},
		{[]float64{3, 3.5, 10, 1, 7, 2, 8, 6.5, 4, 5.5, 9.5}, 3, 8},
	} {
		if q1, q3 := quartiles(tc.data); q1 != tc.q1 || q3 != tc.q3 {
			t.Errorf("quartiles(%v) = %v, %v; Python gives %v, %v", tc.data, q1, q3, tc.q1, tc.q3)
		}
	}
}

// TestTracedLayersReconcile checks that the exact per-layer accumulators
// (shard entry, apply, shard exit, loop) add up to the slots' measured
// intervals.
func TestTracedLayersReconcile(t *testing.T) {
	cfg := runConfig{workload: "list-read", seed: 3, scale: 0.02, traced: true}
	ns, _, err := runNative(cfg, listSpec, 0, &tracer{}, &host{})
	if err != nil {
		t.Fatal(err)
	}
	layers := ns.beginNs + ns.applyNs + ns.endNs + ns.gapNs
	if ns.wallNs <= 0 || layers < ns.wallNs*99/100 || layers > ns.wallNs*101/100 {
		t.Fatalf("layers sum to %d ns, slots measured %d ns", layers, ns.wallNs)
	}
}
