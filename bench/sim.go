package main

import (
	"fmt"
	"math/rand"

	"repro/internal/metrics"
	"repro/internal/registry"
	"repro/internal/sched"
	"repro/internal/service"
	"repro/internal/workload"
)

// Every workload has a simulator phase: the same object and op mix on the
// deterministic priority simulator, with higher-priority jobs interfering.
// Its virtual-time numbers are exact for a seed, so an algorithmic change
// shows without host noise. The native workloads run a fixed number of
// sub-runs with seeds derived from the run's seed, one before each of the
// first native rounds, so the wall-clock samples spread over the run; the
// pooled sub-runs keep the per-job worst cases steady across seeds.

// simAgg pools the sub-runs of a simulator phase.
type simAgg struct {
	ops, makespan int64
	wallNs        int64
	rates         []float64
	// baseMax holds the per-job worst op response of the priority-1 jobs;
	// hiMax that of the higher-priority jobs that were never preempted,
	// whose response the paper bounds by the helping alone.
	baseMax, hiMax          []float64
	slices                  uint64
	dispatches, preemptions int
	// lost, baseP95 and hiP95 come from the service's simulator runs.
	lost           int
	baseP95, hiP95 []float64
	// baseOp and worstOverBase come from the workload package's list runs.
	baseOp, worstOverBase []float64
}

// add pools one sub-run that took wallNs under the given host slowdown.
func (a *simAgg) add(rep *metrics.Report, ops int, wallNs int64, slow float64) {
	a.ops += int64(ops)
	a.makespan += rep.ElapsedVT
	a.wallNs += wallNs
	a.rates = append(a.rates, float64(ops)/(float64(wallNs)/1e9)*slow)
	for _, p := range rep.Procs {
		a.dispatches += p.Dispatches
		if p.OpTime.Count == 0 {
			continue
		}
		switch {
		case p.Prio == 1:
			a.baseMax = append(a.baseMax, float64(p.OpTime.Max))
		case p.Preemptions == 0:
			a.hiMax = append(a.hiMax, float64(p.OpTime.Max))
		}
	}
	a.slices += rep.Slices
	a.preemptions += rep.Preemptions
}

func (a *simAgg) addList(lr *workload.ListResult, wallNs int64, slow float64) {
	a.add(lr.Report, lr.Ops, wallNs, slow)
	a.baseOp = append(a.baseOp, float64(lr.BaseOp))
	a.worstOverBase = append(a.worstOverBase, float64(lr.WorstOp)/float64(lr.BaseOp))
}

func (a *simAgg) report(res *result) {
	res.attempted += int(a.ops)
	res.failed += a.lost
	res.setN("sim_ops_per_s", median(a.rates), len(a.rates))
	res.setN("vt_per_op", float64(a.makespan)/float64(a.ops), int(a.ops))
	res.setN("vt_worst_op", mean(a.baseMax), len(a.baseMax))
	res.setN("hi_vt_max", mean(a.hiMax), len(a.hiMax))
	res.set("sched.ns_per_slice", float64(a.wallNs)/float64(a.slices))
	res.set("sched.slices", float64(a.slices))
	res.set("sched.dispatches", float64(a.dispatches))
	res.set("sched.preemptions", float64(a.preemptions))
	if len(a.baseOp) > 0 {
		res.set("workload.base_op_vt", mean(a.baseOp))
		res.set("workload.worst_over_base", mean(a.worstOverBase))
	}
	if len(a.baseP95) > 0 {
		res.set("service.base_vt_p95", median(a.baseP95))
		res.set("service.hi_vt_p95", median(a.hiP95))
	}
}

func mean(xs []float64) float64 {
	if len(xs) == 0 {
		return 0
	}
	var s float64
	for _, x := range xs {
		s += x
	}
	return s / float64(len(xs))
}

// listSim is list-read's simulator sub-run k: workload.RunList with the
// wait-free list on P=2, the same mix, and eight 25-op bursts per processor.
func listSim(cfg runConfig, k int, a *simAgg, tr *tracer, h *host) error {
	h.begin(switchKernel)
	t0 := now()
	lr, err := workload.RunList(workload.ListConfig{
		Kind: workload.WaitFree, Processors: 2, BurstsPerCPU: 8, BurstOps: scaled(25, cfg.scale),
		TotalOps: scaled(10_000, cfg.scale), ListSize: listSize, SearchPercent: listSearchPct,
		Seed: streamSeed(cfg.seed, k, 0),
	})
	wall := now() - t0
	tr.mark("workload.RunList", 0, t0)
	if err != nil {
		return err
	}
	if lr.Livelocked {
		return fmt.Errorf("list-read: simulator sub-run %d livelocked", k)
	}
	a.addList(lr, wall, h.end())
	return nil
}

// queueSim is queue-backlog on the simulator, in RunList's shape: two
// priority-1 base workers (each prefills half of queueDepth, then
// alternates enqueue and dequeue) plus four alternating priority-9 bursts
// per processor, released at staggered slice counts.
func queueSim(seed int64, baseOps, burstOps int) (*metrics.Report, int, error) {
	const (
		P      = 2
		bursts = 4
		// slicesPerOp estimates one op's global slices at depth 256 (136
		// measured) for staggering the burst releases; a late release
		// fires at quiescence, an early one only shifts the pattern.
		slicesPerOp = 136
	)
	slots := P + P*bursts
	prefill := queueDepth / P
	capacity := queueDepth + slots*queuePoolPerSlot + 8
	s := sched.New(sched.Config{
		Processors: P, Seed: seed, MemWords: 3*capacity + 64*slots + 1<<14,
		Granularity: sched.Coarse,
	})
	inst, err := registry.Build(s, "multiqueue", registry.Config{Processors: P, Procs: slots, Capacity: capacity})
	if err != nil {
		return nil, 0, err
	}
	enq := make([]int, slots)
	deq := make([][]uint64, slots)
	body := func(slot, pre, n int) func(*sched.Env) {
		return func(e *sched.Env) {
			for i := 0; i < pre+n; i++ {
				op := registry.Op{Code: registry.OpDequeue}
				if i < pre || (i-pre)%2 == 0 {
					enq[slot]++
					op = registry.Op{Code: registry.OpEnqueue, Val: queueValue(slot, enq[slot])}
				}
				start := e.Now()
				r := inst.Apply(e, slot, op)
				e.RecordOp(e.Now() - start)
				if op.Code == registry.OpDequeue && r.OK {
					deq[slot] = append(deq[slot], r.Val)
				}
			}
		}
	}
	for cpu := 0; cpu < P; cpu++ {
		s.Spawn(sched.JobSpec{Name: fmt.Sprintf("base%d", cpu), CPU: cpu, Prio: 1, Slot: cpu,
			AfterSlices: -1, Cost: int64(prefill + baseOps), Body: body(cpu, prefill, baseOps)})
	}
	rng := rand.New(rand.NewSource(seed))
	est := int64(P*(prefill+baseOps)) * slicesPerOp
	job := 0
	for cpu := 0; cpu < P; cpu++ {
		for b := 0; b < bursts; b++ {
			slot := P + job
			// Jitter within half the spacing, so two bursts on one
			// processor never overlap and no base op waits for two.
			release := est*int64(b+1)/(bursts+1) + rng.Int63n(est/(2*(bursts+1))+1)
			s.Spawn(sched.JobSpec{Name: fmt.Sprintf("burst%d", job), CPU: cpu, Prio: 9, Slot: slot,
				AfterSlices: release, Cost: int64(burstOps), Body: body(slot, 0, burstOps)})
			job++
		}
	}
	if err := s.Run(); err != nil {
		return nil, 0, err
	}
	if err := checkQueue(enq, deq, inst.Snapshot()); err != nil {
		return nil, 0, fmt.Errorf("queue-backlog simulator: %w", err)
	}
	return s.Report("multiqueue"), P*(prefill+baseOps) + P*bursts*burstOps, nil
}

// queueSimRun is queue-backlog's simulator sub-run k.
func queueSimRun(cfg runConfig, k int, a *simAgg, tr *tracer, h *host) error {
	h.begin(switchKernel)
	t0 := now()
	rep, ops, err := queueSim(streamSeed(cfg.seed, k, 0), scaled(1_000, cfg.scale), 2*scaled(25, cfg.scale))
	wall := now() - t0
	tr.mark("queue simulator run", 0, t0)
	if err != nil {
		return err
	}
	a.add(rep, ops, wall, h.end())
	return nil
}

// counterSim is counter-hot's simulator sub-run k, the service's own
// driver: two priority-1 base workers and two priority-9 burst workers
// released by the bursty arrival trace, on P=2.
func counterSim(cfg runConfig, k int, a *simAgg, tr *tracer, h *host) error {
	h.begin(switchKernel)
	t0 := now()
	r, err := service.RunSim(service.SimConfig{
		Kind: service.Counter, Variant: service.WaitFree, Processors: 2,
		Requests: scaled(20_000, cfg.scale), BurstRequests: scaled(5_000, cfg.scale),
		Traffic: service.TrafficConfig{Keys: counterKeys, Zipf: counterZipf, MaxDelta: counterDelta},
		Seed:    streamSeed(cfg.seed, k, 0),
	})
	wall := now() - t0
	tr.mark("service.RunSim", 0, t0)
	if err != nil {
		return err
	}
	if err := r.AssertWaitFree(); err != nil {
		return err
	}
	a.add(r.Report, r.Requests, wall, h.end())
	a.lost += r.Lost
	a.baseP95 = append(a.baseP95, float64(r.BaseOpTime.P95))
	a.hiP95 = append(a.hiP95, float64(r.BurstOpTime.P95))
	return nil
}
