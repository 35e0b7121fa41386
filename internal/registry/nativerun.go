package registry

// The native-backend run harness: the one place goroutines are spawned
// against a native.World. NewNativeHarness lays out a world for a family
// and a process count; the caller builds its instance (or, in
// internal/service, its store) on that world; NativeHarness.Run places
// the processes, runs one goroutine per slot and joins them. The race
// stress suite, the off-simulator differential tests, cmd/wfbench's
// native experiment, cmd/wftrace -native and service.RunNative all share
// it.

import (
	"fmt"
	"runtime"
	"sync"
	"time"

	"repro/internal/metrics"
	"repro/internal/native"
	"repro/internal/shmem"
	"repro/internal/trace"
)

// NativeRun parameterizes one native execution of a descriptor.
type NativeRun struct {
	// Procs is the number of process goroutines; Ops the operations each
	// one performs, drawn from the descriptor's deterministic generator
	// with Seed.
	Procs, Ops int
	Seed       int64
	// Cfg sizes the instance. The harness fills Procs and, when zero,
	// a Capacity large enough that no process exhausts its node pool
	// (arena exhaustion panics by design).
	Cfg Config
	// Wrap optionally wraps the built instance before the run (the linz
	// history recorder). The wrapper must be safe for concurrent Apply.
	Wrap func(Instance) Instance
	// Obs enables the native metrics layer (per-goroutine counter blocks
	// and latency histograms, aggregated into NativeResult.Report);
	// Recorder enables the flight recorder (per-goroutine ring buffers of
	// native.DefaultRingCap events, drained into NativeResult.TraceLog).
	// Both are off by default: an unobserved run pays nothing.
	Obs      bool
	Recorder bool
}

// NativeResult is what one native run of a descriptor observed.
type NativeResult struct {
	// Inst is the (unwrapped) instance; quiescent after the join, so
	// Snapshot and CheckErr are safe.
	Inst Instance
	// Results holds each process's per-op outcomes, index-aligned with
	// the generator's op stream.
	Results [][]Result
	HarnessResult
}

// HarnessResult is what one NativeHarness.Run observed.
type HarnessResult struct {
	// World is the finished execution (help counters).
	World *native.World
	// Elapsed is the wall-clock spawn-to-join time; Counts the summed
	// memory-operation tallies of all processes.
	Elapsed time.Duration
	Counts  metrics.OpCounts
	// PerProc holds each process's own tally.
	PerProc []metrics.OpCounts
	// Report is the run's aggregated metrics.Report (nil unless the
	// metrics layer is on): the same shape the simulator produces, with
	// Granularity "native", wall-clock nanoseconds in the virtual-time
	// fields, and the native-only histogram/depth/retry fields set.
	Report *metrics.Report
	// TraceLog is the drained flight recording (nil unless the recorder
	// is on); DroppedEvents counts ring overwrites.
	TraceLog      *trace.Log
	DroppedEvents uint64
}

// OpsDone returns the total operations applied.
func (r *NativeResult) OpsDone() int {
	n := 0
	for _, rs := range r.Results {
		n += len(rs)
	}
	return n
}

// NativeHarness is one native run being set up: a fresh world laid out
// for a family and a process count. Build on World, then Run.
type NativeHarness struct {
	World *native.World
	procs int
	obs   native.ObsConfig
	place func(slot int) (cpu int, prio shmem.Priority)
}

// NewNativeHarness lays out a world over mem for procs processes of fam
// (see nativeLayout), with the observability layers obs selects on.
func NewNativeHarness(fam Family, mem *native.Mem, procs int, obs native.ObsConfig) *NativeHarness {
	w, place := nativeLayout(fam, mem, procs)
	if obs.Metrics || obs.Recorder {
		w.EnableObs(obs)
	}
	return &NativeHarness{World: w, procs: procs, obs: obs, place: place}
}

// nativeLayout maps a family onto a world and a per-process (cpu,
// priority) assignment — the one layout rule every native run uses:
//
//   - uni: one shard, priorities slot%8 — ties interleave at operation
//     boundaries, strict inequalities preempt mid-operation, which is the
//     paper's uniprocessor model and exercises incremental helping;
//   - multi: min(GOMAXPROCS, procs) priority-disciplined shards,
//     processes dealt round-robin with distinct priorities within each
//     shard (Figures 6-7: one announce ring, P processors);
//   - baseline: free-running goroutines — the anything-goes scheduling the
//     lock-free and lock-based baselines are designed for.
func nativeLayout(fam Family, mem *native.Mem, procs int) (*native.World, func(slot int) (int, shmem.Priority)) {
	switch fam {
	case FamilyUni:
		w := native.NewWorld(mem, 1)
		return w, func(slot int) (int, shmem.Priority) { return 0, shmem.Priority(slot % 8) }
	case FamilyMulti:
		shards := min(runtime.GOMAXPROCS(0), procs)
		w := native.NewWorld(mem, shards)
		return w, func(slot int) (int, shmem.Priority) {
			return slot % shards, shmem.Priority(slot / shards)
		}
	default:
		w := native.NewFreeWorld(mem)
		return w, func(slot int) (int, shmem.Priority) { return 0, 0 }
	}
}

// Run places the processes, runs body(p, slot) for every slot on its own
// goroutine and joins them. The body brackets each operation with
// p.Begin/p.End itself. object and seed label the report.
func (h *NativeHarness) Run(object string, seed int64, body func(p *native.Proc, slot int)) HarnessResult {
	procs := make([]*native.Proc, h.procs)
	for i := range procs {
		cpu, prio := h.place(i)
		procs[i] = h.World.NewProc(i, cpu, prio)
	}
	var wg sync.WaitGroup
	start := time.Now()
	for i, p := range procs {
		wg.Add(1)
		go func() {
			defer wg.Done()
			body(p, i)
		}()
	}
	wg.Wait()
	hr := HarnessResult{World: h.World, Elapsed: time.Since(start), PerProc: make([]metrics.OpCounts, h.procs)}
	for i, p := range procs {
		hr.PerProc[i] = p.Counts
		hr.Counts.Add(p.Counts)
	}
	if h.obs.Metrics {
		hr.Report = nativeReport(object, seed, h.World, procs, hr.Elapsed, hr.Counts)
	}
	if h.obs.Recorder {
		hr.TraceLog = h.World.DrainTrace()
		hr.DroppedEvents = h.World.DroppedEvents()
	}
	return hr
}

// RunNative builds the object on a fresh native world and drives it to
// quiescence: Procs goroutines, each applying its generated op stream with
// one Begin/End shard window per operation.
func (d *Descriptor) RunNative(r NativeRun) (*NativeResult, error) {
	if r.Procs <= 0 || r.Procs > native.MaxSlots || r.Ops < 0 {
		return nil, fmt.Errorf("registry: native run needs 1 <= Procs <= %d and Ops >= 0 (got %d, %d)", native.MaxSlots, r.Procs, r.Ops)
	}
	cfg := r.Cfg
	cfg.Procs = r.Procs
	if cfg.Capacity == 0 {
		// Worst case every op of every process allocates a node and frees
		// go to the freeing slot's pool, so size per-slot pools to the
		// full op budget plus the seeds.
		cfg.Capacity = r.Procs*(r.Ops+4) + 2*len(cfg.SeedKeys) + 8
	}
	mem := native.NewMem(1<<15 + cfg.Capacity*8 + r.Procs*64)
	h := NewNativeHarness(d.Family, mem, r.Procs, native.ObsConfig{Metrics: r.Obs, Recorder: r.Recorder})
	inst, err := BuildOn(NativeBackend(h.World), d.Name, cfg)
	if err != nil {
		return nil, err
	}
	driven := inst
	if r.Wrap != nil {
		driven = r.Wrap(inst)
	}
	res := &NativeResult{Inst: inst, Results: make([][]Result, r.Procs)}
	res.HarnessResult = h.Run(d.Name, r.Seed, func(p *native.Proc, slot int) {
		ops := d.Ops(cfg, r.Seed, slot, r.Ops)
		out := make([]Result, len(ops))
		for j, op := range ops {
			p.Begin()
			out[j] = driven.Apply(p, slot, op)
			p.End()
		}
		res.Results[slot] = out
	})
	return res, nil
}

// nativeReport aggregates the per-goroutine observability blocks into
// the simulator's report shape, so AssertWaitFree and the BENCH JSON
// consumers read native runs through the same fields. Mapping:
// Granularity is "native"; every *VT field carries wall-clock nanoseconds;
// Slices/Dispatches count shard-runner tenures; OpTime digests the per-op
// latency histogram (Begin→End, shard wait included — the response-time
// figure the "practically wait-free" question asks about); Interference
// uses the simulator's rule (own preemptions plus processes on other
// shards). The native-only fields (Latency, OpLatency, MaxPreemptDepth,
// CAS2GuardRetries) are the omitempty extras the simulator never sets.
func nativeReport(object string, seed int64, w *native.World, procs []*native.Proc, elapsed time.Duration, counts metrics.OpCounts) *metrics.Report {
	rep := &metrics.Report{
		Object:      object,
		Seed:        seed,
		Processors:  w.Processors(),
		Granularity: "native",
		SyncCost:    1,
		ElapsedVT:   elapsed.Nanoseconds(),
		Mem:         counts,
		OpLatency:   &metrics.Hist{},
	}
	for i, p := range procs {
		s := p.Stats()
		pr := metrics.ProcReport{
			ID:               i,
			Name:             fmt.Sprintf("g%d", i),
			CPU:              p.CPU(),
			Prio:             int(p.Prio()),
			Slot:             p.Slot(),
			Mem:              p.Counts,
			HelpGiven:        int(p.HelpGiven),
			HelpReceived:     int(w.HelpReceived(p.Slot())),
			Slices:           s.Dispatches,
			Dispatches:       int(s.Dispatches),
			Preemptions:      int(s.Preemptions),
			OpTime:           s.Latency.Summary(),
			Latency:          s.Latency,
			MaxPreemptDepth:  int(s.MaxPreemptDepth),
			CAS2GuardRetries: s.CAS2GuardRetries,
		}
		pr.Interference = int(s.Preemptions)
		for _, q := range procs {
			if q != p && q.CPU() != p.CPU() {
				pr.Interference++
			}
		}
		rep.Slices += s.Dispatches
		rep.OpLatency.Add(s.Latency)
		rep.CAS2GuardRetries += s.CAS2GuardRetries
		rep.Procs = append(rep.Procs, pr)
	}
	rep.Finalize()
	rep.OpTime = rep.OpLatency.Summary()
	return rep
}
