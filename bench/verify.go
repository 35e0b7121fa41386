package main

import (
	"errors"
	"fmt"
	"runtime"
	"sort"

	"repro/internal/explore"
	"repro/internal/harness"
	"repro/internal/linz"
	"repro/internal/linz/adversary"
	"repro/internal/registry"
	"repro/internal/workload"
)

// sim-verify is the simulator and checker workload: native does no work.
//
//  1. The §3.4 read-heavy paper run (workload.RunList: wait-free, P=4, list
//     1,000, 50,000 ops, 80% search, four 25-op bursts per processor), once;
//     the virtual-time metrics come from it.
//  2. Descriptor.Swarm over the ten core objects through internal/harness,
//     a fixed number of schedules per object per round.
//  3. adversary.Execute plus Run.Check on a fixed number of seeds per
//     object per round, timed one schedule at a time.
//
// Rounds of 2 and 3 repeat until the deadline, each after a tenth-size
// paper run, so sim_ops_per_s is a median over samples spread across the
// run rather than one. An "op" here is one checked schedule: ops_per_s is
// checked schedules per second over phases 2 and 3, and the op percentiles
// are phase 3's per-schedule latencies.

func paperRun(seed int64, scale float64) workload.ListConfig {
	return workload.ListConfig{
		Kind: workload.WaitFree, Processors: 4, BurstsPerCPU: 4, BurstOps: scaled(25, scale),
		TotalOps: scaled(50_000, scale), ListSize: 1_000, Seed: seed, SearchPercent: 80,
	}
}

// verifyNames lists the core objects with the multiprocessor family first:
// their sweeps cost ~15x the uniprocessor ones, and the harness hands out
// tasks in order, so this keeps both workers busy to the end of a round.
func verifyNames() []string {
	names := registry.CoreNames()
	sort.SliceStable(names, func(i, j int) bool {
		return registry.Lookup0(names[i]).Family == registry.FamilyMulti &&
			registry.Lookup0(names[j]).Family != registry.FamilyMulti
	})
	return names
}

// checkVerify is sim-verify's oracle over one adversary run: the recorded
// history must be linearizable.
func checkVerify(r *adversary.Run) (linz.Outcome, error) {
	out, err := r.Check(linz.Options{})
	if err != nil {
		return out, fmt.Errorf("%s: linz check: %w", r.Desc.Name, err)
	}
	if !out.OK {
		return out, fmt.Errorf("%s: history is not linearizable\n%s", r.Desc.Name, out.Counterexample.Tree(r.History))
	}
	return out, nil
}

func simVerify(cfg runConfig, deadline int64, res *result, tr *tracer, h *host) error {
	// Phase 1. Its peak RSS stands for the workload's: the single-threaded
	// paper run peaks steadily, while the two swarm workers' collections
	// move later peaks from run to run.
	resetPeakRSS()
	h.begin(switchKernel)
	t0 := now()
	lr, err := workload.RunList(paperRun(cfg.seed, cfg.scale))
	wall := now() - t0
	tr.mark("workload.RunList paper", 0, t0)
	if err != nil {
		return err
	}
	if lr.Livelocked {
		return errors.New("sim-verify: the paper run livelocked")
	}
	agg := &simAgg{}
	agg.addList(lr, wall, h.end())
	res.set("rss_peak_mb", peakRSS())
	reportCounts(res, lr.Report.Mem, float64(lr.Ops))
	res.set("helping.helps_per_op", float64(lr.Report.HelpReceived)/float64(lr.Ops))

	names := verifyNames()
	schedules := scaled(2_000, cfg.scale)
	// 100 seeds x 10 objects gives each round's p99 ten samples beyond it.
	seeds := scaled(100, cfg.scale)
	var rates, p50s, p99s, setups []float64
	objRates := make([][]float64, len(names))
	var lat, exec, check hist
	var states, runs, total int
	var mallocs, bytes uint64
	var gcs uint32
	var last int64
	for round := 0; round < 3 || now()+last < deadline; round++ {
		roundStart := now()
		// Set-up: the paper run's fixed cost, RunList at the paper's
		// list size with no operations (simulator, seeded 1,000-key list
		// and the interference-free base-op probe), timed after a
		// collection as the native rounds' set-up is.
		runtime.GC()
		s0 := now()
		empty := paperRun(cfg.seed, cfg.scale)
		empty.TotalOps, empty.BurstsPerCPU = 0, 0
		if _, err := workload.RunList(empty); err != nil {
			return err
		}
		setup := now() - s0
		tr.mark("setup.RunList empty", 0, s0)

		h.begin(switchKernel)
		c0 := now()
		chunk, err := workload.RunList(paperRun(streamSeed(cfg.seed, round, 0), cfg.scale/10))
		cwall := now() - c0
		tr.mark("workload.RunList tenth", 0, c0)
		if err != nil {
			return err
		}
		if chunk.Livelocked {
			return errors.New("sim-verify: a tenth-size paper run livelocked")
		}
		slow := h.end()
		agg.rates = append(agg.rates, float64(chunk.Ops)/(float64(cwall)/1e9)*slow)
		setups = append(setups, float64(setup)/1e9/slow)
		res.attempted += chunk.Ops

		runtime.GC()
		var m0, m1 runtime.MemStats
		runtime.ReadMemStats(&m0)
		var roundLat hist
		h.begin(switchKernel)
		p2 := now()
		walls, err := harness.Map(len(names), harness.Options{Workers: nativeSlots}, func(i int) (int64, error) {
			s := now()
			_, err := registry.Lookup0(names[i]).Swarm(registry.SwarmConfig{
				Schedules: schedules, Seed: streamSeed(cfg.seed, round, i), Max: 120,
			})
			tr.mark("Swarm "+names[i], 10+i, s)
			return now() - s, err
		})
		if err != nil {
			var f explore.Failures
			if errors.As(err, &f) {
				res.failed += len(f)
			}
			return fmt.Errorf("sim-verify swarm: %w", err)
		}
		for i, w := range walls {
			objRates[i] = append(objRates[i], float64(schedules)/(float64(w)/1e9))
		}
		p2wall := now() - p2

		p3 := now()
		for k := 0; k < seeds; k++ {
			for _, name := range names {
				strat := adversary.Uniform
				if k%2 == 1 {
					strat = adversary.PCT
				}
				e0 := now()
				r, err := adversary.Execute(adversary.Config{Object: name, Seed: streamSeed(cfg.seed, round, k), Strategy: strat})
				if err != nil {
					res.failed++
					return err
				}
				e1 := now()
				out, err := checkVerify(r)
				e2 := now()
				r.Close()
				if err != nil {
					res.failed++
					return err
				}
				exec.add(e1 - e0)
				check.add(e2 - e1)
				roundLat.add(e2 - e0)
				states += out.States
				if runs%spanSample == 0 {
					id := uint64(runs) + 1
					tr.add(span{Name: "adversary.Execute " + name, Tid: 30, ID: id, Start: e0, End: e1},
						span{Name: "Run.Check " + name, Tid: 30, ID: id, Start: e1, End: e2})
				}
				runs++
			}
		}
		p3wall := now() - p3
		slow = h.end()
		runtime.ReadMemStats(&m1)
		mallocs += m1.Mallocs - m0.Mallocs
		bytes += m1.TotalAlloc - m0.TotalAlloc
		gcs += m1.NumGC - m0.NumGC
		n := len(names) * (schedules + seeds)
		total += n
		rates = append(rates, float64(n)/(float64(p2wall+p3wall)/1e9)*slow)
		p50s = append(p50s, roundLat.quantile(0.50)/1e3/slow)
		p99s = append(p99s, roundLat.quantile(0.99)/1e3/slow)
		lat.merge(&roundLat)
		last = now() - roundStart
	}

	agg.report(res)
	res.attempted += total
	res.setN("ops_per_s", median(rates), len(rates))
	res.setN("op_p50_us", median(p50s), int(lat.count))
	res.setN("op_p99_us", median(p99s), int(lat.count))
	res.setN("setup_s", median(setups), len(setups))
	for i, name := range names {
		res.set("explore.sched_per_s."+name, median(objRates[i]))
	}
	res.setN("linz.execute_us", exec.quantile(0.50)/1e3, int(exec.count))
	res.setN("linz.check_us", check.quantile(0.50)/1e3, int(check.count))
	res.set("linz.states_per_run", float64(states)/float64(runs))
	res.set("go.allocs_per_op", float64(mallocs)/float64(total))
	res.set("go.bytes_per_op", float64(bytes)/float64(total))
	res.set("go.gc_per_mop", float64(gcs)/(float64(total)/1e6))
	res.setN("bench.op_p999_us", lat.quantile(0.999)/1e3, int(lat.count))
	res.setN("bench.op_max_us", float64(lat.max)/1e3, int(lat.count))
	return nil
}
