package main

import (
	"runtime"
	"sort"
	"sync"

	"repro/internal/metrics"
	"repro/internal/native"
)

// Op codes index the per-code histograms and outcome tallies; the names
// become the per-layer metric names.
const (
	codeSearch = iota
	codeInsert
	codeDelete
	codeEnqueue
	codeDequeue
	codeRequest
	nCodes
)

var opCodeNames = [nCodes]string{"search", "insert", "delete", "enqueue", "dequeue", "request"}

// nativeSlots is the goroutine count of every native workload: one process
// per shard on a 2-shard world, so each shard has a single runner and the
// two interleave only through shared memory.
const nativeSlots = 2

// nativeSlot is one slot's work for a round.
type nativeSlot struct {
	proc *native.Proc
	n    int
	// apply performs op i through the program's public API and stores its
	// outcome; code returns op i's code.
	apply func(i int)
	code  func(i int) int
}

// nativeRound is one round of a native workload, built fresh so every round
// starts from the same object state.
type nativeRound struct {
	world *native.World
	slots []nativeSlot
	// check is the output oracle; it runs after the join, before any
	// number of the round is used.
	check func() error
	// outcomes adds the round's per-code results to t.
	outcomes func(t *tally)
	// mutex runs the round's op streams against the sync.Mutex reference
	// and returns its ops/s.
	mutex func() float64
}

// nativeSpec is a native workload: its per-round op budget, the round
// builder, which generates the streams (untimed) and then performs the
// timed set-up, returning its duration in ns, and its simulator phase of
// simRuns sub-runs.
type nativeSpec struct {
	opsPerSlot int
	round      func(seed int64, round, opsPerSlot int, tr *tracer) (*nativeRound, int64, error)
	simRuns    int
	sim        func(cfg runConfig, k int, a *simAgg, tr *tracer, h *host) error
}

// slotTimes is one slot goroutine's timing state for a round.
type slotTimes struct {
	op         hist
	begin, end hist
	apply      [nCodes]hist
	// Exact per-layer time accumulators over every traced op: shard entry
	// and exit (native), the object or store call (apply), and the loop
	// between ops (gap); first and last bound the slot's measured interval.
	beginNs, applyNs, endNs, gapNs int64
	gaps                           int
	first, last                    int64
	spans                          []opSpan
}

func (st *slotTimes) reset() {
	spans := st.spans[:0]
	*st = slotTimes{spans: spans}
}

// drive runs one slot's ops: Begin, Apply, End, timed from outside. The
// untraced loop takes two timestamps per op; the traced loop takes four and
// feeds the per-layer histograms and accumulators.
func drive(s nativeSlot, st *slotTimes, traced bool, idBase uint64) {
	p := s.proc
	if !traced {
		for i := 0; i < s.n; i++ {
			t0 := now()
			p.Begin()
			s.apply(i)
			p.End()
			st.op.add(now() - t0)
		}
		return
	}
	last := int64(-1)
	for i := 0; i < s.n; i++ {
		t0 := now()
		p.Begin()
		t1 := now()
		s.apply(i)
		t2 := now()
		p.End()
		t3 := now()
		c := s.code(i)
		st.op.add(t3 - t0)
		st.begin.add(t1 - t0)
		st.apply[c].add(t2 - t1)
		st.end.add(t3 - t2)
		st.beginNs += t1 - t0
		st.applyNs += t2 - t1
		st.endNs += t3 - t2
		if last >= 0 {
			st.gapNs += t0 - last
			st.gaps++
		} else {
			st.first = t0
		}
		last = t3
		if i%spanSample == 0 {
			st.spans = append(st.spans, opSpan{id: idBase + uint64(i) + 1, slot: p.Slot() + 1, code: c, t: [4]int64{t0, t1, t2, t3}})
		}
	}
	st.last = last
}

// runRound releases every slot goroutine at once and returns the wall time
// from release to join in ns.
func runRound(slots []nativeSlot, times []*slotTimes, traced bool, round int) int64 {
	var wg sync.WaitGroup
	start := make(chan struct{})
	for i := range slots {
		wg.Add(1)
		go func(slot int) {
			defer wg.Done()
			<-start
			drive(slots[slot], times[slot], traced, uint64(round)<<40|uint64(slot)<<32)
		}(i)
	}
	t0 := now()
	close(start)
	wg.Wait()
	return now() - t0
}

// tally accumulates counts over a run's measured native rounds.
type tally struct {
	ops             int
	codeOps, codeOK [nCodes]int
	retries, lost   int
	counts          metrics.OpCounts
	helps           uint64
	mallocs, bytes  uint64
	gcs             uint32
}

// nativeStats is the native phase's outcome, folded into the result.
type nativeStats struct {
	// rates and the percentiles are host-normalized (see host.go);
	// rawRates are as measured.
	rates, rawRates, tracedRates, p50s, p99s, setups, rss []float64
	op                                                    hist // untraced rounds, pooled
	begin, end                                            hist // traced rounds, pooled
	apply                                                 [nCodes]hist
	beginNs, applyNs, endNs, gapNs                        int64
	gaps                                                  int
	wallNs                                                int64 // traced slots' measured intervals
	mutexRate                                             float64
	tally                                                 tally
	spans                                                 []opSpan
}

// runNative drives spec's rounds until the deadline (at least minRounds),
// running simulator sub-run k before round k and any left over at the end.
// In a traced run the rounds alternate untraced and traced, so one process
// measures the tracing overhead.
func runNative(cfg runConfig, spec nativeSpec, deadline int64, tr *tracer, h *host) (*nativeStats, *simAgg, error) {
	agg := &simAgg{}
	n := scaled(spec.opsPerSlot, cfg.scale)
	times := make([]*slotTimes, nativeSlots)
	for i := range times {
		times[i] = new(slotTimes)
	}
	ns := &nativeStats{}
	minRounds := 3
	if cfg.traced {
		minRounds = 4
	}
	var lastRound int64
	round := 0
	for ; round < minRounds || now()+lastRound < deadline; round++ {
		roundStart := now()
		if round < spec.simRuns {
			if err := spec.sim(cfg, round, agg, tr, h); err != nil {
				return nil, nil, err
			}
		}
		traced := cfg.traced && round%2 == 1
		// Collect the previous round's streams before allocating the next
		// round's, so the peak RSS holds one round, not two.
		runtime.GC()
		r, setup, err := spec.round(cfg.seed, round, n, tr)
		if err != nil {
			return nil, nil, err
		}
		if cfg.traced && round == 0 {
			ns.mutexRate = r.mutex()
		}
		for _, st := range times {
			st.reset()
		}
		before := make([]metrics.OpCounts, len(r.slots))
		for i, s := range r.slots {
			before[i] = s.proc.Counts
		}
		runtime.GC()
		var m0, m1 runtime.MemStats
		runtime.ReadMemStats(&m0)
		resetPeakRSS()
		h.begin(atomicKernel)
		wall := runRound(r.slots, times, traced, round)
		slow := h.end()
		ns.rss = append(ns.rss, peakRSS())
		// The set-up ran just before the round, so the round's slowdown
		// normalizes it too.
		ns.setups = append(ns.setups, float64(setup)/1e9/slow)
		runtime.ReadMemStats(&m1)
		if err := r.check(); err != nil {
			return nil, nil, err
		}

		t := &ns.tally
		ops := 0
		var roundOp hist
		for i, s := range r.slots {
			ops += s.n
			c := s.proc.Counts
			b := before[i]
			t.counts.Add(metrics.OpCounts{
				Loads: c.Loads - b.Loads, Stores: c.Stores - b.Stores,
				CAS: c.CAS - b.CAS, CASFail: c.CASFail - b.CASFail,
				CAS2: c.CAS2 - b.CAS2, CAS2Fail: c.CAS2Fail - b.CAS2Fail,
				CCAS: c.CCAS - b.CCAS, CCASFail: c.CCASFail - b.CCASFail,
			})
			t.helps += r.world.HelpReceived(s.proc.Slot())
			roundOp.merge(&times[i].op)
		}
		t.ops += ops
		t.mallocs += m1.Mallocs - m0.Mallocs
		t.bytes += m1.TotalAlloc - m0.TotalAlloc
		t.gcs += m1.NumGC - m0.NumGC
		r.outcomes(t)

		raw := float64(ops) / (float64(wall) / 1e9)
		rate := raw * slow
		if traced {
			ns.tracedRates = append(ns.tracedRates, rate)
			for _, st := range times {
				ns.begin.merge(&st.begin)
				ns.end.merge(&st.end)
				for c := range st.apply {
					ns.apply[c].merge(&st.apply[c])
				}
				ns.beginNs += st.beginNs
				ns.applyNs += st.applyNs
				ns.endNs += st.endNs
				ns.gapNs += st.gapNs
				ns.gaps += st.gaps
				ns.wallNs += st.last - st.first
				ns.spans = append(ns.spans, st.spans...)
			}
		} else {
			ns.rates = append(ns.rates, rate)
			ns.rawRates = append(ns.rawRates, raw)
			ns.p50s = append(ns.p50s, roundOp.quantile(0.50)/1e3/slow)
			ns.p99s = append(ns.p99s, roundOp.quantile(0.99)/1e3/slow)
			ns.op.merge(&roundOp)
		}
		lastRound = now() - roundStart
	}
	for k := round; k < spec.simRuns; k++ {
		if err := spec.sim(cfg, k, agg, tr, h); err != nil {
			return nil, nil, err
		}
	}
	return ns, agg, nil
}

// report folds the native phase into the result: the end-to-end op metrics
// from the untraced rounds, the per-layer ones from the traced rounds.
func (ns *nativeStats) report(res *result) {
	res.attempted += ns.tally.ops
	res.failed += ns.tally.lost
	rounds := len(ns.rates)
	res.setN("ops_per_s", median(ns.rates), rounds)
	res.setN("op_p50_us", median(ns.p50s), int(ns.op.count))
	res.setN("op_p99_us", median(ns.p99s), int(ns.op.count))
	res.setN("setup_s", median(ns.setups), len(ns.setups))
	res.setN("rss_peak_mb", median(ns.rss), len(ns.rss))

	t := &ns.tally
	ops := float64(t.ops)
	reportCounts(res, t.counts, ops)
	res.set("helping.helps_per_op", float64(t.helps)/ops)
	res.set("go.allocs_per_op", float64(t.mallocs)/ops)
	res.set("go.bytes_per_op", float64(t.bytes)/ops)
	res.set("go.gc_per_mop", float64(t.gcs)/(ops/1e6))
	res.setN("bench.op_p999_us", ns.op.quantile(0.999)/1e3, int(ns.op.count))
	res.setN("bench.op_max_us", float64(ns.op.max)/1e3, int(ns.op.count))

	if len(ns.tracedRates) == 0 {
		return
	}
	res.setN("native.begin_ns.p50", ns.begin.quantile(0.50), int(ns.begin.count))
	res.setN("native.begin_ns.p99", ns.begin.quantile(0.99), int(ns.begin.count))
	res.setN("native.end_ns.p50", ns.end.quantile(0.50), int(ns.end.count))
	for c := 0; c < nCodes; c++ {
		h := &ns.apply[c]
		if h.count == 0 {
			continue
		}
		prefix := "registry.apply_us." + opCodeNames[c]
		if c == codeRequest {
			prefix = "service.apply_us"
		}
		res.setN(prefix+".p50", h.quantile(0.50)/1e3, int(h.count))
		res.setN(prefix+".p99", h.quantile(0.99)/1e3, int(h.count))
		if c != codeRequest {
			res.set("registry.ok_frac."+opCodeNames[c], float64(t.codeOK[c])/float64(t.codeOps[c]))
		}
	}
	res.set("bench.loop_self_ns", float64(ns.gapNs)/float64(max(ns.gaps, 1)))
	res.setN("bench.trace_overhead_frac", 1-median(ns.tracedRates)/median(ns.rates), len(ns.tracedRates))
	res.set("bench.raw_ops_per_s", median(ns.rawRates))
	res.set("ref.mutex_ops_per_s", ns.mutexRate)
	res.set("ref.ops_vs_mutex", median(ns.rawRates)/ns.mutexRate)
}

// reportCounts sets the shmem per-op metrics from a memory-operation tally.
func reportCounts(res *result, c metrics.OpCounts, ops float64) {
	syncs := c.CAS + c.CAS2 + c.CCAS
	res.set("shmem.steps_per_op", float64(c.Steps())/ops)
	res.set("shmem.loads_per_op", float64(c.Loads)/ops)
	res.set("shmem.cas_per_op", float64(c.CAS)/ops)
	res.set("shmem.cas2_per_op", float64(c.CAS2)/ops)
	res.set("shmem.ccas_per_op", float64(c.CCAS)/ops)
	res.set("shmem.sync_fail_per_op", float64(c.Fails())/ops)
	if syncs > 0 {
		res.set("shmem.sync_ok_ratio", 1-float64(c.Fails())/float64(syncs))
	}
}

func median(xs []float64) float64 {
	if len(xs) == 0 {
		return 0
	}
	s := append([]float64(nil), xs...)
	sort.Float64s(s)
	if len(s)%2 == 1 {
		return s[len(s)/2]
	}
	return (s[len(s)/2-1] + s[len(s)/2]) / 2
}

func scaled(n int, scale float64) int {
	return max(1, int(float64(n)*scale))
}
