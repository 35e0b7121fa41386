package main

// The -exp native experiment: real-hardware throughput. Every registered
// object runs on the native backend (internal/native) — real goroutines,
// real sync/atomic words, the paper's priority discipline enforced by
// shards — and is compared against what a pragmatic Go programmer would
// write instead: the same abstract operations under one sync.Mutex. The
// simulator experiments measure algorithmic cost in virtual time; this one
// measures wall-clock ops/sec, which is the number the paper's Section 3.4
// tables ultimately stand in for.

import (
	"encoding/json"
	"fmt"
	"os"
	"path/filepath"
	"runtime"
	"sort"
	"sync"
	"time"

	"repro/internal/metrics"
	"repro/internal/registry"
)

// nativeEntry is one object's (or mutex baseline's) measured run.
type nativeEntry struct {
	Object string `json:"object"`
	// Kind classifies the implementation: "waitfree" (the paper's
	// objects), "baseline" (the repo's lock-free/lock-based baselines) or
	// "mutex" (the sync.Mutex reference).
	Kind   string `json:"kind"`
	Family string `json:"family"`
	Model  string `json:"model"`

	// Policy and Arrival record the run configuration the same way the
	// sweep entries do (empty = default, omitted from JSON so the golden
	// reports stay byte-identical). The native backend schedules with
	// real goroutines either way; the stamp keeps BENCH artifacts
	// self-describing.
	Policy  string `json:"policy,omitempty"`
	Arrival string `json:"arrival,omitempty"`

	Procs     int     `json:"procs"`
	OpsTotal  int     `json:"ops_total"`
	ElapsedNs int64   `json:"elapsed_ns"`
	OpsPerSec float64 `json:"ops_per_sec"`

	// Goroutines is the number of process goroutines the run spawned;
	// Shards the shard count of its world (0 for free-running worlds and
	// the mutex baseline).
	Goroutines int `json:"goroutines"`
	Shards     int `json:"shards,omitempty"`

	// Mem tallies the object's shared-memory operations (zero for the
	// mutex baseline, whose state is ordinary Go memory).
	Mem metrics.OpCounts `json:"mem_total"`

	HelpGiven    uint64 `json:"help_given_total"`
	HelpReceived uint64 `json:"help_received_total"`

	// Report is the run's full observability report (internal/native metrics
	// aggregated into the simulator's report shape): per-goroutine counter
	// blocks, op-latency histograms, preemption depths, CAS2 guard retries.
	// Absent for the mutex baseline, which runs outside the memory seam.
	Report *metrics.Report `json:"report,omitempty"`
}

// nativeReport is the BENCH_native.json payload.
type nativeReport struct {
	Experiment string        `json:"experiment"`
	Seed       int64         `json:"seed"`
	Procs      int           `json:"procs"`
	GoMaxProcs int           `json:"gomaxprocs"`
	GoVersion  string        `json:"go_version"`
	NumCPU     int           `json:"num_cpu"`
	Entries    []nativeEntry `json:"entries"`
}

func modelName(m registry.ModelKind) string {
	switch m {
	case registry.ModelSorted:
		return "sorted"
	case registry.ModelFIFO:
		return "fifo"
	case registry.ModelLIFO:
		return "lifo"
	case registry.ModelWords:
		return "words"
	}
	return fmt.Sprintf("model%d", int(m))
}

// nativeBench measures every registered object plus one mutex baseline per
// model kind and writes <outdir>/BENCH_native.json. totalOps is split
// evenly across procs goroutines; every implementation of a model kind
// consumes the identical generated op streams.
func nativeBench(outdir string, totalOps, procs int, seed int64) error {
	if procs < 1 {
		procs = 1
	}
	perProc := totalOps / procs
	if perProc < 1 {
		perProc = 1
	}
	rep := nativeReport{
		Experiment: "native",
		Seed:       seed,
		Procs:      procs,
		GoMaxProcs: runtime.GOMAXPROCS(0),
		GoVersion:  runtime.Version(),
		NumCPU:     runtime.NumCPU(),
	}

	for _, d := range registry.All() {
		cfg := d.StressConfig(procs)
		cfg.Check = false
		if d.Name != "herlihy" {
			// Size node pools to the op budget; herlihy's capacity is its
			// state-array size, not a pool (see the stress suite).
			cfg.Capacity = 0
		}
		res, err := d.RunNative(registry.NativeRun{
			Procs: procs, Ops: perProc, Seed: seed, Cfg: cfg,
			Obs: true, // the metrics layer costs ~nothing; the report is the payload
		})
		if err != nil {
			return fmt.Errorf("native %s: %w", d.Name, err)
		}
		kind := "waitfree"
		if d.Family == registry.FamilyBaseline {
			kind = "baseline"
		}
		var received uint64
		for slot := 0; slot < procs; slot++ {
			received += res.World.HelpReceived(slot)
		}
		// Helping is pairwise, so the totals coincide.
		given := received
		done := res.OpsDone()
		rep.Entries = append(rep.Entries, nativeEntry{
			Object: d.Name, Kind: kind,
			Family: d.Family.String(), Model: modelName(d.Model),
			Policy: benchPolicy, Arrival: benchArrival,
			Procs: procs, OpsTotal: done,
			ElapsedNs:  res.Elapsed.Nanoseconds(),
			OpsPerSec:  metrics.Throughput(done, res.Elapsed.Nanoseconds()),
			Goroutines: procs, Shards: res.World.Shards(),
			Mem:       res.Counts,
			HelpGiven: given, HelpReceived: received,
			Report: res.Report,
		})
	}

	for _, m := range []registry.ModelKind{registry.ModelSorted, registry.ModelFIFO, registry.ModelLIFO, registry.ModelWords} {
		entry, err := mutexBench(m, totalOps, procs, seed)
		if err != nil {
			return err
		}
		rep.Entries = append(rep.Entries, *entry)
	}

	printNative(&rep)
	path := filepath.Join(outdir, "BENCH_native.json")
	f, err := os.Create(path)
	if err != nil {
		return err
	}
	enc := json.NewEncoder(f)
	enc.SetIndent("", "  ")
	if err := enc.Encode(&rep); err != nil {
		f.Close()
		return err
	}
	if err := f.Close(); err != nil {
		return err
	}
	fmt.Printf("\nwrote %s\n", path)
	return nil
}

// genFor returns a descriptor whose generator produces the canonical op
// stream for the model kind (streams depend on the model, not the object).
func genFor(m registry.ModelKind) *registry.Descriptor {
	for _, d := range registry.All() {
		if d.Model == m {
			return d
		}
	}
	panic("wfbench: no descriptor for model kind")
}

// mutexBench runs the model kind's canonical op streams against plain Go
// data under one sync.Mutex — the reference any concurrent Go structure
// has to beat or justify itself against.
func mutexBench(m registry.ModelKind, totalOps, procs int, seed int64) (*nativeEntry, error) {
	d := genFor(m)
	cfg := d.StressConfig(procs)
	perProc := totalOps / procs
	if perProc < 1 {
		perProc = 1
	}
	var mu sync.Mutex
	set := map[uint64]uint64{}
	for _, k := range cfg.SeedKeys {
		set[k] = k * 10
	}
	var fifo, lifo []uint64
	words := make([]uint64, cfg.Words)
	copy(words, cfg.Initial)

	apply := func(op registry.Op) {
		mu.Lock()
		defer mu.Unlock()
		switch op.Code {
		case registry.OpInsert:
			if _, ok := set[op.Key]; !ok {
				set[op.Key] = op.Val
			}
		case registry.OpDelete:
			delete(set, op.Key)
		case registry.OpSearch:
			_ = set[op.Key]
		case registry.OpEnqueue:
			fifo = append(fifo, op.Val)
		case registry.OpDequeue:
			if len(fifo) > 0 {
				fifo = fifo[1:]
			}
		case registry.OpPush:
			lifo = append(lifo, op.Val)
		case registry.OpPop:
			if len(lifo) > 0 {
				lifo = lifo[:len(lifo)-1]
			}
		case registry.OpMWCAS:
			for _, w := range op.Words {
				words[w] += op.Delta
			}
		}
	}

	streams := make([][]registry.Op, procs)
	for slot := range streams {
		streams[slot] = d.Ops(cfg, seed, slot, perProc)
	}
	var wg sync.WaitGroup
	start := time.Now()
	for slot := range streams {
		wg.Add(1)
		go func(ops []registry.Op) {
			defer wg.Done()
			for _, op := range ops {
				apply(op)
			}
		}(streams[slot])
	}
	wg.Wait()
	elapsed := time.Since(start)
	done := procs * perProc
	return &nativeEntry{
		Object: "mutex-" + modelName(m), Kind: "mutex",
		Family: "-", Model: modelName(m),
		Policy: benchPolicy, Arrival: benchArrival,
		Procs: procs, OpsTotal: done,
		ElapsedNs:  elapsed.Nanoseconds(),
		OpsPerSec:  metrics.Throughput(done, elapsed.Nanoseconds()),
		Goroutines: procs,
	}, nil
}

// printNative renders the comparison grouped by model kind, fastest first.
func printNative(rep *nativeReport) {
	entries := append([]nativeEntry(nil), rep.Entries...)
	sort.SliceStable(entries, func(i, j int) bool {
		if entries[i].Model != entries[j].Model {
			return entries[i].Model < entries[j].Model
		}
		return entries[i].OpsPerSec > entries[j].OpsPerSec
	})
	rows := make([][]string, 0, len(entries))
	for _, e := range entries {
		p50, p95 := "-", "-"
		if e.Report != nil && e.Report.OpLatency != nil && e.Report.OpLatency.Count > 0 {
			s := e.Report.OpTime
			p50, p95 = fmt.Sprintf("%d", s.P50), fmt.Sprintf("%d", s.P95)
		}
		rows = append(rows, []string{
			e.Model, e.Object, e.Kind,
			fmt.Sprintf("%d", e.OpsTotal),
			fmt.Sprintf("%.0f", e.OpsPerSec),
			p50, p95,
			fmt.Sprintf("%d", e.Mem.CASFail+e.Mem.CAS2Fail+e.Mem.CCASFail),
			fmt.Sprintf("%d", e.HelpReceived),
		})
	}
	table(fmt.Sprintf("Native-hardware throughput (%d procs on GOMAXPROCS=%d, %d ops each, go %s)",
		rep.Procs, rep.GoMaxProcs, rep.Entries[0].OpsTotal, rep.GoVersion),
		[]string{"model", "object", "kind", "ops", "ops/sec", "p50 ns", "p95 ns", "retries", "helps"}, rows)
}
