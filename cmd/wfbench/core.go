package main

// The -exp core experiment: the simulator core's per-slice cost.
//
// Every slice ends in a scheduling decision, made by the process itself at
// its preemption point. Two Fine-granularity microbenchmarks run a long
// Load/Store loop:
//
//   - the one-CPU loop (one processor, one process): the pure per-slice
//     overhead of the simulator, reported as ns/slice, slices/sec, and
//     allocs/slice;
//   - the duet (two processors, one process each), where the min-clock
//     interleaving alternates the processors every slice, so each slice
//     hands the processor to the other process.
//
// Each side also records two exact dispatch counters: coroutine switches
// per slice (two per resume: into the process and back out) and scheduling
// decisions per slice. A process that keeps the processor continues with
// no switch, and a hand-off to another process costs one, so the loop
// switches only to start and to finish, and the duet switches once per
// slice. The counters are deterministic, so they are the gate: an extra
// round trip per slice shows as two more switches per slice.
//
// Results go to <outdir>/BENCH_core.json, and -corebaseline gates the run
// against a committed baseline: the dispatch counters exactly, the loop's
// allocations below coreAllocLimit per slice, and its ns/slice within a
// 25% slack. The core-object sweep is timed by -exp sweep.

import (
	"encoding/json"
	"fmt"
	"os"
	"path/filepath"
	"runtime"
	"time"

	"repro/internal/sched"
	"repro/internal/shmem"
)

// coreMicroOps is the number of shared-memory operations (= Fine slices) the
// microbenchmark executes per run.
const coreMicroOps = 200_000

// coreSide holds one microbenchmark's numbers. Switches and Decisions are
// the exact dispatch counters (sched.Sim.Resumes × 2, Decisions).
type coreSide struct {
	NsPerSlice        float64 `json:"ns_per_slice"`
	SlicesPerSec      float64 `json:"slices_per_sec"`
	AllocsPerSlice    float64 `json:"allocs_per_slice"`
	Slices            uint64  `json:"slices"`
	ElapsedVT         int64   `json:"elapsed_vt"`
	Switches          uint64  `json:"switches"`
	Decisions         uint64  `json:"decisions"`
	SwitchesPerSlice  float64 `json:"switches_per_slice"`
	DecisionsPerSlice float64 `json:"decisions_per_slice"`
}

// coreDoc is the BENCH_core.json schema: Loop is the one-CPU
// microbenchmark, Duet the two-CPU one. The JSON keys match the committed
// baseline's.
type coreDoc struct {
	MicroOps int      `json:"micro_ops"`
	Loop     coreSide `json:"serial"`
	Duet     coreSide `json:"duet_serial"`
}

// coreMicroRun executes the microbenchmark once on cpus processors, one
// process each, coreMicroOps operations in all, and returns its
// measurements.
func coreMicroRun(cpus int) coreSide {
	s := sched.Acquire(sched.Config{Processors: cpus, Seed: 1, MemWords: 1 << 12})
	defer sched.Release(s)
	for cpu := 0; cpu < cpus; cpu++ {
		s.SpawnAt(0, cpu, 1, "worker", func(e *sched.Env) {
			a, b := shmem.Addr(1), shmem.Addr(2)
			for i := 0; i < coreMicroOps/2/cpus; i++ {
				v := e.Load(a)
				e.Store(b, v+1)
			}
		})
	}
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
	switches := 2 * s.Resumes()
	return coreSide{
		NsPerSlice:        float64(wall.Nanoseconds()) / float64(slices),
		SlicesPerSec:      float64(slices) / wall.Seconds(),
		AllocsPerSlice:    float64(after.Mallocs-before.Mallocs) / float64(slices),
		Slices:            slices,
		ElapsedVT:         s.Elapsed(),
		Switches:          switches,
		Decisions:         s.Decisions(),
		SwitchesPerSlice:  float64(switches) / float64(slices),
		DecisionsPerSlice: float64(s.Decisions()) / float64(slices),
	}
}

// coreMicroBest runs the microbenchmark reps times and keeps the fastest run
// (noise on shared CI hosts only ever slows a run down).
func coreMicroBest(cpus, reps int) coreSide {
	var best coreSide
	for i := 0; i < reps; i++ {
		side := coreMicroRun(cpus)
		if i == 0 || side.NsPerSlice < best.NsPerSlice {
			best = side
		}
	}
	return best
}

// coreBench is the -exp core entry point.
func coreBench(outdir, baselinePath string) error {
	const reps = 3
	doc := coreDoc{
		MicroOps: coreMicroOps,
		Loop:     coreMicroBest(1, reps),
		Duet:     coreMicroBest(2, reps),
	}

	b, err := json.MarshalIndent(doc, "", "  ")
	if err != nil {
		return err
	}
	path := filepath.Join(outdir, "BENCH_core.json")
	if err := os.WriteFile(path, append(b, '\n'), 0o644); err != nil {
		return err
	}
	rows := [][]string{
		{"ns/slice", fmt.Sprintf("%.1f", doc.Loop.NsPerSlice), fmt.Sprintf("%.1f", doc.Duet.NsPerSlice)},
		{"slices/sec", fmt.Sprintf("%.0f", doc.Loop.SlicesPerSec), fmt.Sprintf("%.0f", doc.Duet.SlicesPerSec)},
		{"allocs/slice", fmt.Sprintf("%.6f", doc.Loop.AllocsPerSlice), fmt.Sprintf("%.6f", doc.Duet.AllocsPerSlice)},
		{"switches/slice", fmt.Sprintf("%.6f", doc.Loop.SwitchesPerSlice), fmt.Sprintf("%.6f", doc.Duet.SwitchesPerSlice)},
		{"decisions/slice", fmt.Sprintf("%.6f", doc.Loop.DecisionsPerSlice), fmt.Sprintf("%.6f", doc.Duet.DecisionsPerSlice)},
	}
	table("Simulator core — one-CPU loop and two-CPU duet",
		[]string{"bench", "loop", "duet"}, rows)
	fmt.Printf("wrote %s\n", path)

	if baselinePath != "" {
		if err := coreGate(baselinePath, doc); err != nil {
			return err
		}
	}
	return nil
}

// coreGateSlack is the tolerated regression factor against the committed
// baseline: the gate fails when the loop's ns/slice exceeds baseline × 1.25.
const coreGateSlack = 1.25

// coreAllocLimit is the loop's allocation ceiling per slice. A run
// allocates a fixed handful and its slices none, so one allocation
// anywhere on the slice path reads about 1.
const coreAllocLimit = 0.01

// coreGate compares the fresh run against the committed baseline document:
// both sides' dispatch counters must match exactly, the loop must allocate
// less than coreAllocLimit per slice, and its ns/slice must stay within
// coreGateSlack. ci.sh skips the whole -exp core invocation under
// WF_SKIP_PERF_GATE, which covers every gate.
func coreGate(baselinePath string, doc coreDoc) error {
	raw, err := os.ReadFile(baselinePath)
	if err != nil {
		return fmt.Errorf("core baseline: %w", err)
	}
	var base coreDoc
	if err := json.Unmarshal(raw, &base); err != nil {
		return fmt.Errorf("core baseline %s: %w", baselinePath, err)
	}
	sides := []struct {
		name      string
		got, want coreSide
	}{
		{"loop", doc.Loop, base.Loop},
		{"duet", doc.Duet, base.Duet},
	}
	for _, sd := range sides {
		if sd.want.Decisions == 0 {
			return fmt.Errorf("core baseline %s: %s side has no dispatch counters", baselinePath, sd.name)
		}
		if sd.got.Switches != sd.want.Switches || sd.got.Decisions != sd.want.Decisions {
			return fmt.Errorf("core dispatch gate: %s switches/slice %.6f, decisions/slice %.6f (counts %d, %d); baseline %.6f, %.6f (counts %d, %d)",
				sd.name, sd.got.SwitchesPerSlice, sd.got.DecisionsPerSlice, sd.got.Switches, sd.got.Decisions,
				sd.want.SwitchesPerSlice, sd.want.DecisionsPerSlice, sd.want.Switches, sd.want.Decisions)
		}
	}
	fmt.Printf("core dispatch gate: switch and decision counts match the baseline (duet %.4f switches/slice)\n",
		doc.Duet.SwitchesPerSlice)
	if doc.Loop.AllocsPerSlice >= coreAllocLimit {
		return fmt.Errorf("core alloc gate: loop allocates %.4f per slice (%d slices), limit %.2f",
			doc.Loop.AllocsPerSlice, doc.Loop.Slices, coreAllocLimit)
	}
	fmt.Printf("core alloc gate: %.6f allocs/slice below %.2f\n", doc.Loop.AllocsPerSlice, coreAllocLimit)
	limit := base.Loop.NsPerSlice * coreGateSlack
	if doc.Loop.NsPerSlice > limit {
		return fmt.Errorf("core perf gate: loop ns/slice %.1f exceeds baseline %.1f by more than %.0f%% (limit %.1f)",
			doc.Loop.NsPerSlice, base.Loop.NsPerSlice, (coreGateSlack-1)*100, limit)
	}
	fmt.Printf("core perf gate: %.1f ns/slice within %.0f%% of baseline %.1f\n",
		doc.Loop.NsPerSlice, (coreGateSlack-1)*100, base.Loop.NsPerSlice)
	return nil
}
