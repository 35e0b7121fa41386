package main

// The -exp core experiment: the simulator-core performance trajectory.
//
// Two measurements, both taken with the run-ahead fast path off ("serial",
// one coroutine round trip to the scheduler loop per slice) and on
// ("runahead", batched slices):
//
//   - a Fine-granularity uncontended microbenchmark (one processor, one
//     process, a long Load/Store loop) — the pure per-slice overhead of the
//     simulator, reported as ns/slice, slices/sec, and allocs/slice;
//   - the full core-object release-point sweep (registry.Sweep at wfcheck's
//     default depth of 120, every schedule linearizability-checked) — the
//     end-to-end wall-clock the fast path buys on real verification work,
//     timed per object with the fastest of several repetitions kept.
//
// The sweep's headline speedup is the GEOMETRIC MEAN of the per-object
// speedups: the uniprocessor families batch long uncontended stretches,
// while the two-processor families gain almost nothing because their
// workers alternate slice-by-slice across CPUs — batching across that
// boundary would reorder memory operations and break byte-identity, so
// every duet slice pays one coroutine round trip in both modes. A
// total-time ratio would weight objects by the incidental length of their
// op scripts (and be dominated by the slowest family); the geometric mean
// weights each object equally, the usual convention for summarizing
// benchmark ratios. Both figures, and the full per-object table, are in
// the JSON.
//
// Both modes must agree exactly (same virtual elapsed time, same slice
// counts, same schedule counts); the experiment fails otherwise. Results go
// to <outdir>/BENCH_core.json, and -corebaseline compares the run-ahead
// ns/slice AND the sweep speedup against a committed baseline as CI perf
// gates.

import (
	"encoding/json"
	"fmt"
	"math"
	"os"
	"path/filepath"
	"runtime"
	"time"

	"repro/internal/registry"
	"repro/internal/sched"
	"repro/internal/shmem"
)

// coreMicroOps is the number of shared-memory operations (= Fine slices) the
// microbenchmark executes per run.
const coreMicroOps = 200_000

// coreSweepMax is the release-point range of the in-process sweep; it
// matches wfcheck's default -max.
const coreSweepMax = 120

// coreSide holds one mode's microbenchmark numbers.
type coreSide struct {
	NsPerSlice     float64 `json:"ns_per_slice"`
	SlicesPerSec   float64 `json:"slices_per_sec"`
	AllocsPerSlice float64 `json:"allocs_per_slice"`
	Slices         uint64  `json:"slices"`
	ElapsedVT      int64   `json:"elapsed_vt"`
}

// coreSweepObject is one object's sweep timing (fastest repetition per
// mode).
type coreSweepObject struct {
	Name       string  `json:"name"`
	Schedules  int     `json:"schedules"`
	SerialMs   float64 `json:"serial_ms"`
	RunAheadMs float64 `json:"runahead_ms"`
	Speedup    float64 `json:"speedup"`
}

// coreDoc is the BENCH_core.json schema. SweepSpeedup is the geometric
// mean of the per-object sweep speedups (see the package comment for why);
// SweepTotalSpeedup is the plain total-time ratio.
type coreDoc struct {
	MicroOps          int               `json:"micro_ops"`
	Serial            coreSide          `json:"serial"`
	RunAhead          coreSide          `json:"runahead"`
	MicroSpeedup      float64           `json:"micro_speedup"`
	SweepMax          int64             `json:"sweep_max"`
	SweepSchedules    int               `json:"sweep_schedules"`
	SweepSerialMs     float64           `json:"sweep_serial_ms"`
	SweepRunAheadMs   float64           `json:"sweep_runahead_ms"`
	SweepSerialPerSec float64           `json:"sweep_serial_sched_per_sec"`
	SweepRunPerSec    float64           `json:"sweep_runahead_sched_per_sec"`
	SweepSpeedup      float64           `json:"sweep_speedup"`
	SweepTotalSpeedup float64           `json:"sweep_total_speedup"`
	SweepObjects      []coreSweepObject `json:"sweep_objects"`
	Identical         bool              `json:"byte_identical"`
}

// coreMicroRun executes the uncontended microbenchmark once in the given
// mode and returns its measurements.
func coreMicroRun(runAhead bool) coreSide {
	sched.SetRunAhead(runAhead)
	defer sched.SetRunAhead(true)
	s := sched.Acquire(sched.Config{Processors: 1, Seed: 1, MemWords: 1 << 12})
	defer sched.Release(s)
	s.SpawnAt(0, 0, 1, "worker", func(e *sched.Env) {
		a, b := shmem.Addr(1), shmem.Addr(2)
		for i := 0; i < coreMicroOps/2; i++ {
			v := e.Load(a)
			e.Store(b, v+1)
		}
	})
	var before, after runtime.MemStats
	runtime.ReadMemStats(&before)
	start := time.Now()
	err := s.Run()
	wall := time.Since(start)
	runtime.ReadMemStats(&after)
	if err != nil {
		panic(fmt.Sprintf("core micro: %v", err))
	}
	slices := s.Slices()
	return coreSide{
		NsPerSlice:     float64(wall.Nanoseconds()) / float64(slices),
		SlicesPerSec:   float64(slices) / wall.Seconds(),
		AllocsPerSlice: float64(after.Mallocs-before.Mallocs) / float64(slices),
		Slices:         slices,
		ElapsedVT:      s.Elapsed(),
	}
}

// coreMicroBest runs the microbenchmark reps times and keeps the fastest run
// (noise on shared CI hosts only ever slows a run down).
func coreMicroBest(runAhead bool, reps int) coreSide {
	var best coreSide
	for i := 0; i < reps; i++ {
		side := coreMicroRun(runAhead)
		if i == 0 || side.NsPerSlice < best.NsPerSlice {
			best = side
		}
	}
	return best
}

// coreSweepOnce runs one object's release-point sweep in the given mode
// and returns the schedule count and wall clock.
func coreSweepOnce(name string, runAhead bool) (int, time.Duration, error) {
	sched.SetRunAhead(runAhead)
	defer sched.SetRunAhead(true)
	d := registry.Lookup0(name)
	start := time.Now()
	n, err := d.Sweep(registry.SweepConfig{Max: coreSweepMax})
	if err != nil {
		return 0, 0, fmt.Errorf("core sweep %s: %w", name, err)
	}
	return n, time.Since(start), nil
}

// coreSweep times the full core-object sweep per object in both modes,
// keeping each object's fastest of reps repetitions per mode (noise on
// shared hosts only slows runs down). The two modes must agree on every
// object's schedule count.
func coreSweep(reps int) ([]coreSweepObject, error) {
	var out []coreSweepObject
	for _, name := range registry.CoreNames() {
		obj := coreSweepObject{Name: name}
		for rep := 0; rep < reps; rep++ {
			nS, dS, err := coreSweepOnce(name, false)
			if err != nil {
				return nil, err
			}
			nR, dR, err := coreSweepOnce(name, true)
			if err != nil {
				return nil, err
			}
			if nS != nR {
				return nil, fmt.Errorf("core sweep %s: serial explored %d schedules, run-ahead %d", name, nS, nR)
			}
			ms := func(d time.Duration) float64 { return float64(d.Microseconds()) / 1000 }
			if rep == 0 || ms(dS) < obj.SerialMs {
				obj.SerialMs = ms(dS)
			}
			if rep == 0 || ms(dR) < obj.RunAheadMs {
				obj.RunAheadMs = ms(dR)
			}
			obj.Schedules = nS
		}
		obj.Speedup = obj.SerialMs / obj.RunAheadMs
		out = append(out, obj)
	}
	return out, nil
}

// coreBench is the -exp core entry point.
func coreBench(outdir, baselinePath string) error {
	const reps = 3
	serial := coreMicroBest(false, reps)
	runAhead := coreMicroBest(true, reps)
	if serial.ElapsedVT != runAhead.ElapsedVT || serial.Slices != runAhead.Slices {
		return fmt.Errorf("core micro: serial and run-ahead runs diverged: vt %d vs %d, slices %d vs %d",
			serial.ElapsedVT, runAhead.ElapsedVT, serial.Slices, runAhead.Slices)
	}

	objects, err := coreSweep(reps)
	if err != nil {
		return err
	}
	doc := coreDoc{
		MicroOps:     coreMicroOps,
		Serial:       serial,
		RunAhead:     runAhead,
		MicroSpeedup: serial.NsPerSlice / runAhead.NsPerSlice,
		SweepMax:     coreSweepMax,
		SweepObjects: objects,
		Identical:    true,
	}
	logSum := 0.0
	for _, o := range objects {
		doc.SweepSchedules += o.Schedules
		doc.SweepSerialMs += o.SerialMs
		doc.SweepRunAheadMs += o.RunAheadMs
		logSum += math.Log(o.Speedup)
	}
	doc.SweepSpeedup = math.Exp(logSum / float64(len(objects)))
	doc.SweepTotalSpeedup = doc.SweepSerialMs / doc.SweepRunAheadMs
	doc.SweepSerialPerSec = float64(doc.SweepSchedules) / (doc.SweepSerialMs / 1000)
	doc.SweepRunPerSec = float64(doc.SweepSchedules) / (doc.SweepRunAheadMs / 1000)

	b, err := json.MarshalIndent(doc, "", "  ")
	if err != nil {
		return err
	}
	path := filepath.Join(outdir, "BENCH_core.json")
	if err := os.WriteFile(path, append(b, '\n'), 0o644); err != nil {
		return err
	}
	rows := [][]string{
		{"micro ns/slice", fmt.Sprintf("%.1f", doc.Serial.NsPerSlice),
			fmt.Sprintf("%.1f", doc.RunAhead.NsPerSlice), fmt.Sprintf("%.2fx", doc.MicroSpeedup)},
		{"micro slices/sec", fmt.Sprintf("%.0f", doc.Serial.SlicesPerSec),
			fmt.Sprintf("%.0f", doc.RunAhead.SlicesPerSec), ""},
		{"micro allocs/slice", fmt.Sprintf("%.4f", doc.Serial.AllocsPerSlice),
			fmt.Sprintf("%.4f", doc.RunAhead.AllocsPerSlice), ""},
	}
	for _, o := range objects {
		rows = append(rows, []string{"sweep ms " + o.Name,
			fmt.Sprintf("%.1f", o.SerialMs), fmt.Sprintf("%.1f", o.RunAheadMs),
			fmt.Sprintf("%.2fx", o.Speedup)})
	}
	rows = append(rows,
		[]string{fmt.Sprintf("sweep ms total (%d schedules)", doc.SweepSchedules),
			fmt.Sprintf("%.1f", doc.SweepSerialMs), fmt.Sprintf("%.1f", doc.SweepRunAheadMs),
			fmt.Sprintf("%.2fx", doc.SweepTotalSpeedup)},
		[]string{"sweep schedules/sec", fmt.Sprintf("%.0f", doc.SweepSerialPerSec),
			fmt.Sprintf("%.0f", doc.SweepRunPerSec), ""},
		[]string{"sweep speedup (geomean)", "", "", fmt.Sprintf("%.2fx", doc.SweepSpeedup)},
	)
	table("Simulator core — serial vs run-ahead fast path (byte-identical schedules)",
		[]string{"bench", "serial", "runahead", "speedup"}, rows)
	fmt.Printf("wrote %s\n", path)

	if baselinePath != "" {
		if err := coreGate(baselinePath, doc); err != nil {
			return err
		}
	}
	return nil
}

// coreGateSlack is the tolerated regression factor against the committed
// baseline: the gates fail when run-ahead ns/slice exceeds baseline × 1.25
// or the sweep speedup falls below baseline ÷ 1.25.
const coreGateSlack = 1.25

// coreGate compares the fresh run-ahead ns/slice and the sweep speedup
// against the committed baseline document. ci.sh skips the whole -exp core
// invocation under WF_SKIP_PERF_GATE, which covers both gates.
func coreGate(baselinePath string, doc coreDoc) error {
	raw, err := os.ReadFile(baselinePath)
	if err != nil {
		return fmt.Errorf("core baseline: %w", err)
	}
	var base coreDoc
	if err := json.Unmarshal(raw, &base); err != nil {
		return fmt.Errorf("core baseline %s: %w", baselinePath, err)
	}
	limit := base.RunAhead.NsPerSlice * coreGateSlack
	if doc.RunAhead.NsPerSlice > limit {
		return fmt.Errorf("core perf gate: run-ahead ns/slice %.1f exceeds baseline %.1f by more than %.0f%% (limit %.1f)",
			doc.RunAhead.NsPerSlice, base.RunAhead.NsPerSlice, (coreGateSlack-1)*100, limit)
	}
	fmt.Printf("core perf gate: %.1f ns/slice within %.0f%% of baseline %.1f\n",
		doc.RunAhead.NsPerSlice, (coreGateSlack-1)*100, base.RunAhead.NsPerSlice)
	if base.SweepSpeedup > 0 {
		floor := base.SweepSpeedup / coreGateSlack
		if doc.SweepSpeedup < floor {
			return fmt.Errorf("core perf gate: sweep speedup %.2fx fell below baseline %.2fx by more than %.0f%% (floor %.2fx)",
				doc.SweepSpeedup, base.SweepSpeedup, (coreGateSlack-1)*100, floor)
		}
		fmt.Printf("core perf gate: sweep speedup %.2fx within %.0f%% of baseline %.2fx\n",
			doc.SweepSpeedup, (coreGateSlack-1)*100, base.SweepSpeedup)
	}
	return nil
}
