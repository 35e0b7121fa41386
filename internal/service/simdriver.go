package service

import (
	"fmt"
	"slices"

	"repro/internal/arrival"
	"repro/internal/metrics"
	"repro/internal/registry"
	"repro/internal/sched"
)

// The simulator driver: the service scenario as a deterministic virtual-
// time run. P base workers (priority 1, released at time zero) each
// stream Requests generated requests into the store while P burst
// workers (priority 9, released by an arrival trace) inject
// BurstRequests-request spikes — the serving-system shape of steady
// load plus arriving hot traffic. Every request's response time is
// recorded via Env.RecordOp, so the report's OpTime percentiles are
// exact virtual-time hot-path latencies, and the whole run — report
// included — is a pure function of (config, seed).

// SimConfig parameterizes a simulator-backed service run.
type SimConfig struct {
	Kind    Kind
	Variant Variant
	// Processors is P; the run has P base workers and P burst workers
	// (2P store slots). Default 2.
	Processors int
	// Requests is each base worker's request count (default 200).
	Requests int
	// BurstRequests is each burst worker's request count
	// (default Requests/4).
	BurstRequests int
	// Traffic shapes the generated request stream.
	Traffic TrafficConfig
	// Budget and Batch pass through to StoreConfig.
	Budget int
	Batch  int
	Seed   int64
	// Policy names the scheduling discipline ("" = strict priority).
	Policy string
	// Arrival names the burst workers' release trace (default "bursty").
	Arrival string
}

func (c *SimConfig) normalize() error {
	if c.Processors == 0 {
		c.Processors = 2
	}
	if c.Requests == 0 {
		c.Requests = 200
	}
	if c.BurstRequests == 0 {
		c.BurstRequests = c.Requests / 4
	}
	if c.Arrival == "" {
		c.Arrival = "bursty"
	}
	c.Traffic = c.Traffic.Normalized()
	if c.Processors < 1 || c.Requests < 1 || c.BurstRequests < 0 {
		return fmt.Errorf("service: sim sizing out of range (P=%d requests=%d burst=%d)",
			c.Processors, c.Requests, c.BurstRequests)
	}
	return c.Traffic.check(c.Kind, max(c.Requests, c.BurstRequests), c.Processors*(c.Requests+c.BurstRequests))
}

// SimResult is the measured outcome of one simulator-backed run.
type SimResult struct {
	Cfg    SimConfig
	Report *metrics.Report
	Outcome
	// ElapsedVT is the run's virtual-time makespan.
	ElapsedVT int64
	// BaseOpTime and BurstOpTime digest per-request response times by
	// worker class, the starvation story's per-policy comparison axis.
	BaseOpTime, BurstOpTime metrics.Summary
}

// AssertWaitFree checks the paper's bound shape on the run's report with
// allowances calibrated for the service transaction. Own work: each
// request costs a bounded announce/scan/help transaction, so the
// interference-free budget is linear in the slot's request count. Per
// interferer: every unit of interference (a preemption, or a process on
// another processor) can force at most one extra helping pass plus — for
// the processes actually sharing the words — the conflict retries the
// rival's own commits can induce, which the retry cap hard-bounds.
func (r *SimResult) AssertWaitFree() error {
	slots := 2 * r.Cfg.Processors
	perReq := 40 + 28*slots // announce + scan ring + one helping pass
	reqs := r.Cfg.Requests
	if r.Cfg.BurstRequests > reqs {
		reqs = r.Cfg.BurstRequests
	}
	own := perReq * (reqs + 1)
	per := perReq * (wfRetryCap(slots) + 2)
	return r.Report.AssertWaitFree(own, per)
}

// RunSim executes one service scenario on the simulator.
func RunSim(cfg SimConfig) (*SimResult, error) {
	if err := cfg.normalize(); err != nil {
		return nil, err
	}
	pol, err := sched.PolicyByName(cfg.Policy)
	if err != nil {
		return nil, err
	}
	trace, err := arrival.ByName(cfg.Arrival)
	if err != nil {
		return nil, err
	}
	P := cfg.Processors
	slots := 2 * P
	totalReqs := P*cfg.Requests + P*cfg.BurstRequests

	s := sched.New(sched.Config{
		Processors:  P,
		Seed:        cfg.Seed,
		MemWords:    1<<16 + slots*(cfg.Traffic.Keys+cfg.Traffic.Tenants+64),
		Granularity: sched.Coarse,
		MaxSteps:    uint64(totalReqs)*uint64(512+64*slots) + 1<<22,
		Policy:      pol,
	})
	st, err := NewStore(registry.SimBackend(s), StoreConfig{
		Kind: cfg.Kind, Variant: cfg.Variant,
		Keys: cfg.Traffic.Keys, Tenants: cfg.Traffic.Tenants,
		Slots: slots, Budget: cfg.Budget, Batch: cfg.Batch,
	})
	if err != nil {
		return nil, err
	}

	// Per-slot outcome rows and response samples, merged post-run.
	tallies := make([]slotTally, slots)
	samples := make([][]int64, slots)
	body := func(slot, n int) func(e *sched.Env) {
		return func(e *sched.Env) {
			t := &tallies[slot]
			*t = newSlotTally(n)
			for _, req := range cfg.Traffic.Requests(cfg.Seed, slot, n) {
				start := e.Now()
				resp := st.Apply(e, slot, req)
				d := e.Now() - start
				e.RecordOp(d)
				samples[slot] = append(samples[slot], d)
				t.add(cfg.Kind, req, resp)
			}
			st.Flush(e, slot)
		}
	}

	for cpu := 0; cpu < P; cpu++ {
		s.Spawn(sched.JobSpec{
			Name: fmt.Sprintf("base%d", cpu), CPU: cpu, Prio: 1, Slot: cpu,
			AfterSlices: -1, Cost: int64(cfg.Requests),
			Body: body(cpu, cfg.Requests),
		})
	}
	rels := trace.Releases(P, cfg.Seed)
	for cpu := 0; cpu < P; cpu++ {
		slot := P + cpu
		s.Spawn(sched.JobSpec{
			Name: fmt.Sprintf("burst%d", cpu), CPU: cpu, Prio: 9, Slot: slot,
			At: rels[cpu].At, AfterSlices: rels[cpu].AfterSlices,
			Cost: int64(cfg.BurstRequests),
			Body: body(slot, cfg.BurstRequests),
		})
	}
	if err := s.Run(); err != nil {
		return nil, err
	}

	rep := s.Report(fmt.Sprintf("service-%s-%s", cfg.Kind, cfg.Variant))
	rep.Arrival = cfg.Arrival
	res := &SimResult{Cfg: cfg, Report: rep, ElapsedVT: rep.ElapsedVT}
	res.Requests = totalReqs
	res.Steps = rep.Mem.Steps()
	if err := res.finish(st, tallies); err != nil {
		return nil, err
	}
	res.BaseOpTime = metrics.Summarize(slices.Concat(samples[:P]...))
	res.BurstOpTime = metrics.Summarize(slices.Concat(samples[P:]...))
	return res, nil
}
