package main

// The -exp core experiment: the simulator-core performance trajectory.
//
// Every measurement is taken with the run-ahead fast path off ("serial":
// every slice ends in a scheduling decision, made by the process itself at
// its preemption point) and on ("runahead": uncontended stretches of slices
// concluded inside the coroutine with no decision at all):
//
//   - a Fine-granularity uncontended microbenchmark (one processor, one
//     process, a long Load/Store loop) — the pure per-slice overhead of the
//     simulator, reported as ns/slice, slices/sec, and allocs/slice;
//   - the same loop as a duet (two processors, one process each), where the
//     min-clock interleaving alternates the processors every slice, so no
//     grant ever applies and each slice hands the processor to the other
//     process;
//   - the full core-object release-point sweep (registry.Sweep at wfcheck's
//     default depth of 120, every schedule linearizability-checked) — the
//     end-to-end wall-clock on real verification work, timed per object
//     with the fastest of several repetitions kept.
//
// Each micro side also records two exact dispatch counters: coroutine
// switches per slice (two per resume: into the process and back out) and
// scheduling decisions per slice. A process that keeps the processor
// continues with no switch, and a hand-off to another process costs one, so
// the one-CPU loop switches only to start and to finish, and the duet
// switches once per slice. The counters are deterministic, so they are the
// gate: a run-ahead grant that stops applying shows as one decision per
// slice, an extra round trip per slice as two more switches per slice.
//
// The sweep's summary speedup is the GEOMETRIC MEAN of the per-object
// speedups, since a total-time ratio would weight objects by the
// incidental length of their op scripts; both figures and the per-object
// table are in the JSON. Now that serial mode pays no round trip either,
// the speedup measures the decisions batching skips (about 1.1×) and is
// recorded, not gated.
//
// Both modes must agree exactly (same virtual elapsed time, same slice
// counts, same schedule counts); the experiment fails otherwise. Results go
// to <outdir>/BENCH_core.json, and -corebaseline gates the run against a
// committed baseline: the dispatch counters exactly, the run-ahead ns/slice
// within a 25% slack.

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

// coreSide holds one mode's microbenchmark numbers. Switches and Decisions
// are the exact dispatch counters (sched.Sim.Resumes × 2, Decisions).
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

// coreSweepObject is one object's sweep timing (fastest repetition per
// mode).
type coreSweepObject struct {
	Name       string  `json:"name"`
	Schedules  int     `json:"schedules"`
	SerialMs   float64 `json:"serial_ms"`
	RunAheadMs float64 `json:"runahead_ms"`
	Speedup    float64 `json:"speedup"`
}

// coreDoc is the BENCH_core.json schema. Serial and RunAhead are the
// one-CPU microbenchmark, DuetSerial and DuetRunAhead the two-CPU one.
// SweepSpeedup is the geometric mean of the per-object sweep speedups (see
// the package comment for why); SweepTotalSpeedup is the plain total-time
// ratio.
type coreDoc struct {
	MicroOps          int               `json:"micro_ops"`
	Serial            coreSide          `json:"serial"`
	RunAhead          coreSide          `json:"runahead"`
	MicroSpeedup      float64           `json:"micro_speedup"`
	DuetSerial        coreSide          `json:"duet_serial"`
	DuetRunAhead      coreSide          `json:"duet_runahead"`
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
// mode on cpus processors, one process each, coreMicroOps operations in all,
// and returns its measurements.
func coreMicroRun(runAhead bool, cpus int) coreSide {
	sched.SetRunAhead(runAhead)
	defer sched.SetRunAhead(true)
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
func coreMicroBest(runAhead bool, cpus, reps int) coreSide {
	var best coreSide
	for i := 0; i < reps; i++ {
		side := coreMicroRun(runAhead, cpus)
		if i == 0 || side.NsPerSlice < best.NsPerSlice {
			best = side
		}
	}
	return best
}

// coreMicroPair measures the microbenchmark on cpus processors in both
// modes and requires the two runs to agree exactly.
func coreMicroPair(cpus, reps int) (serial, runAhead coreSide, err error) {
	serial = coreMicroBest(false, cpus, reps)
	runAhead = coreMicroBest(true, cpus, reps)
	if serial.ElapsedVT != runAhead.ElapsedVT || serial.Slices != runAhead.Slices {
		err = fmt.Errorf("core micro (%d cpus): serial and run-ahead runs diverged: vt %d vs %d, slices %d vs %d",
			cpus, serial.ElapsedVT, runAhead.ElapsedVT, serial.Slices, runAhead.Slices)
	}
	return serial, runAhead, err
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
	serial, runAhead, err := coreMicroPair(1, reps)
	if err != nil {
		return err
	}
	duetSerial, duetRunAhead, err := coreMicroPair(2, reps)
	if err != nil {
		return err
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
		DuetSerial:   duetSerial,
		DuetRunAhead: duetRunAhead,
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
		{"micro switches/slice", fmt.Sprintf("%.6f", doc.Serial.SwitchesPerSlice),
			fmt.Sprintf("%.6f", doc.RunAhead.SwitchesPerSlice), ""},
		{"micro decisions/slice", fmt.Sprintf("%.6f", doc.Serial.DecisionsPerSlice),
			fmt.Sprintf("%.6f", doc.RunAhead.DecisionsPerSlice), ""},
		{"duet ns/slice", fmt.Sprintf("%.1f", doc.DuetSerial.NsPerSlice),
			fmt.Sprintf("%.1f", doc.DuetRunAhead.NsPerSlice), ""},
		{"duet switches/slice", fmt.Sprintf("%.6f", doc.DuetSerial.SwitchesPerSlice),
			fmt.Sprintf("%.6f", doc.DuetRunAhead.SwitchesPerSlice), ""},
		{"duet decisions/slice", fmt.Sprintf("%.6f", doc.DuetSerial.DecisionsPerSlice),
			fmt.Sprintf("%.6f", doc.DuetRunAhead.DecisionsPerSlice), ""},
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
// baseline: the gate fails when run-ahead ns/slice exceeds baseline × 1.25.
const coreGateSlack = 1.25

// coreGate compares the fresh run against the committed baseline document:
// every micro side's dispatch counters must match exactly, and the
// run-ahead ns/slice must stay within coreGateSlack. ci.sh skips the whole
// -exp core invocation under WF_SKIP_PERF_GATE, which covers both gates.
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
		{"serial", doc.Serial, base.Serial},
		{"runahead", doc.RunAhead, base.RunAhead},
		{"duet_serial", doc.DuetSerial, base.DuetSerial},
		{"duet_runahead", doc.DuetRunAhead, base.DuetRunAhead},
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
		doc.DuetRunAhead.SwitchesPerSlice)
	limit := base.RunAhead.NsPerSlice * coreGateSlack
	if doc.RunAhead.NsPerSlice > limit {
		return fmt.Errorf("core perf gate: run-ahead ns/slice %.1f exceeds baseline %.1f by more than %.0f%% (limit %.1f)",
			doc.RunAhead.NsPerSlice, base.RunAhead.NsPerSlice, (coreGateSlack-1)*100, limit)
	}
	fmt.Printf("core perf gate: %.1f ns/slice within %.0f%% of baseline %.1f\n",
		doc.RunAhead.NsPerSlice, (coreGateSlack-1)*100, base.RunAhead.NsPerSlice)
	return nil
}
