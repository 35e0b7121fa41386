package paper

import (
	"fmt"
	"slices"

	"repro/internal/arena"
	"repro/internal/baseline/gclist"
	"repro/internal/baseline/herlihy"
	"repro/internal/baseline/valois"
	"repro/internal/core/multihash"
	"repro/internal/core/multilist"
	"repro/internal/core/multimwcas"
	"repro/internal/core/unilist"
	"repro/internal/core/unimwcas"
	"repro/internal/core/uniqueue"
	"repro/internal/core/unistack"
	"repro/internal/helping"
	"repro/internal/prim"
	"repro/internal/rt"
	"repro/internal/sched"
	"repro/internal/shmem"
	"repro/internal/workload"
)

// Experiments is the table: one entry per figure, section result or
// ablation of the paper, in the order `wfbench -exp paper` prints them.
var Experiments = []Experiment{
	{ID: "fig1", Run: fig1, Band: fig1Band,
		Claim: "Figure 1: worst-case operation time is Θ(W) for the uniprocessor MWCAS, Θ(2T) for the uniprocessor list, Θ(2PW) for the multiprocessor MWCAS and Θ(2PT) for the multiprocessor list"},
	{ID: "fig8", Run: fig8, Band: fig8Band,
		Claim: "Figure 8: CCAS is one step natively and a small constant number of steps in software (counter-tagged, delay-based)"},
	{ID: "sec34", Run: sec34, Band: sec34Band,
		Claim: "Section 3.4: on 200-2,000 element lists, the wait-free list's total time is typically 1.5 to 2 times the lock-free list's"},
	{ID: "retries", Run: retries, Band: retriesBand,
		Claim: "Section 3.4: lock-free operations retry 10-30 times commonly and 30-50 frequently, while a wait-free operation never retries and takes at most 2P times an interference-free operation"},
	{ID: "valois", Run: valoisCmp, Band: valoisBand,
		Claim: "Section 3.4 (citing [7]): under high contention the CAS2 lock-free list beats the CAS-only list with Valois's reclamation cost model"},
	{ID: "ablations", Run: ablations, Band: ablationsBand,
		Claim: "Design choices: processor-indexed helping beats process-indexed helping as N grows (A1); priority helping speeds a late high-priority op (A2); one helping round is cheaper than two (A3); priority helping can starve low-priority ops while cyclic helping bounds them (A6); the Findpos stride pays off when synchronization is expensive (A4)"},
	{ID: "ext", Run: extensions, Band: extBand,
		Claim: "Section 4: hash buckets divide the search cost, and the 2T helping surcharge keeps a rate-monotonic task set schedulable"},
	{ID: "mwcas", Run: mwcasTable, Band: mwcasBand,
		Claim: "Section 3.1 usage: read-compute-MWCAS transactions never conflict on a uniprocessor and cost Θ(W) there; on multiprocessors conflicts grow with P and W"},
}

// setupError carries a runner's error out through check; Measure returns it.
type setupError struct{ error }

// must returns v, or aborts the runner with err.
func must[T any](v T, err error) T {
	check(err)
	return v
}

// check aborts the runner with err if it is non-nil.
func check(err error) {
	if err != nil {
		panic(setupError{err})
	}
}

// seeded builds a list with mk on a fresh arena of the given nodes and
// procs, seeds it with the keys 10, 20, ..., 10·size and freezes the arena.
func seeded[L interface{ SeedAscending([]uint64) error }](s *sched.Sim, nodes, procs, size int, mk func(*arena.Arena) (L, error)) L {
	ar := must(arena.New(s.Mem(), nodes, procs))
	l := must(mk(ar))
	keys := make([]uint64, size)
	for j := range keys {
		keys[j] = uint64(10 * (j + 1))
	}
	check(l.SeedAscending(keys))
	ar.Freeze()
	return l
}

// appWords allocates w application words, initializes each to 0 through
// init, and returns them with the all-0 expected and all-1 new vectors.
func appWords[T uint32 | uint64](s *sched.Sim, w int, init func(shmem.Addr, T)) (addrs []shmem.Addr, old, next []T) {
	base := s.Mem().MustAlloc("app", w)
	addrs, old, next = make([]shmem.Addr, w), make([]T, w), make([]T, w)
	for j := range addrs {
		addrs[j] = base + shmem.Addr(j)
		init(addrs[j], 0)
		next[j] = 1
	}
	return addrs, old, next
}

// timed wraps op into a job body that stores op's response time in *d.
func timed(d *int64, op func(*sched.Env)) func(*sched.Env) {
	return func(e *sched.Env) {
		start := e.Now()
		op(e)
		*d = e.Now() - start
	}
}

// solo is one priority-1 job on processor 0 outside the slot table.
func solo(body func(*sched.Env)) sched.JobSpec {
	return sched.JobSpec{Name: "p", CPU: 0, Prio: 1, Slot: -1, AfterSlices: -1, Body: body}
}

// perCPU returns one priority-1 job per processor 0..n-1, in slot cpu.
func perCPU(n int, body func(cpu int) func(*sched.Env)) []sched.JobSpec {
	jobs := make([]sched.JobSpec, n)
	for cpu := range jobs {
		jobs[cpu] = sched.JobSpec{CPU: cpu, Prio: 1, Slot: cpu, AfterSlices: -1, Body: body(cpu)}
	}
	return jobs
}

// run spawns the jobs, runs the simulation to completion and returns its
// makespan.
func run(s *sched.Sim, jobs ...sched.JobSpec) float64 {
	for _, j := range jobs {
		s.Spawn(j)
	}
	check(s.Run())
	return float64(s.Elapsed())
}

// worstOf runs op once on each of n processors concurrently and returns
// the worst response time over those jobs.
func worstOf(s *sched.Sim, n int, op func(*sched.Env)) float64 {
	worst := make([]int64, n)
	run(s, perCPU(n, func(cpu int) func(*sched.Env) { return timed(&worst[cpu], op) })...)
	return float64(slices.Max(worst))
}

// listRun runs the Section 3.4 list workload at sc.
func listRun(sc Scale, kind workload.Kind, bursts, burstOps, size, searchPct int) *workload.ListResult {
	return must(workload.RunList(workload.ListConfig{
		Kind: kind, Processors: sc.Procs, BurstsPerCPU: bursts, BurstOps: burstOps,
		TotalOps: sc.Ops, ListSize: size, Seed: sc.Seed, SearchPercent: searchPct,
	}))
}

// fig1 measures the Figure 1 summary table: worst-case operation times for
// the four implementations.
func fig1(sc Scale) []Table {
	t := Table{Title: "Figure 1 — worst-case operation time (virtual units)",
		Labels: []string{"implementation", "parameters", "paper bound"},
		Values: []Column{{Name: "worst-case time"}}}
	for _, w := range []int{2, 4, 8, 16, 32} {
		s := sched.New(sched.Config{Processors: 1, Seed: sc.Seed, MemWords: 1 << 12})
		obj := must(unimwcas.New(s.Mem(), 2, w))
		addrs, old, next := appWords(s, w, obj.InitWord)
		var cost int64
		run(s, solo(timed(&cost, func(e *sched.Env) { obj.MWCAS(e, addrs, old, next) })))
		t.add([]string{"uni MWCAS (CAS)", fmt.Sprintf("W=%d", w), "Θ(W)"}, float64(cost))
	}
	// The uniprocessor insert is preempted once mid-scan and helped (2T).
	for _, size := range []int{100, 200, 400, 800} {
		s := sched.New(sched.Config{Processors: 1, Seed: sc.Seed, MemWords: 1 << 17})
		l := seeded(s, size+16, 2, size, func(ar *arena.Arena) (*unilist.List, error) { return unilist.New(s.Mem(), ar, 2) })
		key := uint64(10*size + 5)
		var cost int64
		run(s,
			sched.JobSpec{Name: "victim", CPU: 0, Prio: 1, Slot: 0, AfterSlices: -1, Body: timed(&cost, func(e *sched.Env) { l.Insert(e, key, 0) })},
			sched.JobSpec{Name: "adv", CPU: 0, Prio: 9, Slot: 1, AfterSlices: int64(size), Body: func(e *sched.Env) { l.Search(e, key) }})
		t.add([]string{"uni list (CAS)", fmt.Sprintf("T=%d", size), "Θ(2T)"}, float64(cost))
	}
	for _, pw := range []struct{ p, w int }{{2, 8}, {4, 8}, {8, 8}, {4, 4}, {4, 16}} {
		s := sched.New(sched.Config{Processors: pw.p, Seed: sc.Seed, MemWords: 1 << 14})
		obj := must(multimwcas.New(s.Mem(), multimwcas.Config{Processors: pw.p, Procs: pw.p, Width: pw.w}))
		addrs, old, next := appWords(s, pw.w, obj.InitWord)
		t.add([]string{"multi MWCAS (CAS+CCAS)", fmt.Sprintf("P=%d W=%d", pw.p, pw.w), "Θ(2PW)"},
			worstOf(s, pw.p, func(e *sched.Env) { obj.MWCAS(e, addrs, old, next) }))
	}
	for _, pt := range []struct{ p, t int }{{2, 200}, {4, 200}, {8, 200}, {4, 100}, {4, 400}} {
		s := sched.New(sched.Config{Processors: pt.p, Seed: sc.Seed, MemWords: 1 << 18})
		l := seeded(s, pt.t+16, pt.p, pt.t, func(ar *arena.Arena) (*multilist.List, error) {
			return multilist.New(s.Mem(), ar, multilist.Config{Processors: pt.p, Procs: pt.p})
		})
		t.add([]string{"multi list (CAS+CCAS)", fmt.Sprintf("P=%d T=%d", pt.p, pt.t), "Θ(2PT)"},
			worstOf(s, pt.p, func(e *sched.Env) { l.Search(e, uint64(10*pt.t+5)) }))
	}
	return []Table{t}
}

// fig8 measures the three CCAS implementations' virtual cost per call.
func fig8(sc Scale) []Table {
	t := Table{Title: "Figure 8 — CCAS cost per call (native one-step vs counter-tagged vs delay-based)",
		Labels: []string{"CCAS implementation"}, Values: []Column{{Name: "vsteps per CCAS"}}}
	for _, impl := range prim.All() {
		s := sched.New(sched.Config{Processors: 1, Seed: sc.Seed, MemWords: 64})
		v := s.Mem().MustAlloc("V", 1)
		x := s.Mem().MustAlloc("X", 1)
		impl.InitWord(s.Mem(), x, 0)
		var cost int64
		run(s, solo(timed(&cost, func(e *sched.Env) {
			for k := uint64(0); k < 100; k++ {
				impl.Exec(e, v, 0, x, k, k+1)
			}
		})))
		t.add([]string{impl.Name()}, float64(cost)/100)
	}
	return []Table{t}
}

// sec34 measures the Section 3.4 throughput experiment: total time for
// sc.Ops insert/delete operations on sorted lists of 200-2,000 elements,
// wait-free vs lock-free, plus a read-heavy supplement.
func sec34(sc Scale) []Table {
	var ts []Table
	for _, mix := range []struct {
		title     string
		sizes     []int
		searchPct int
	}{
		{fmt.Sprintf("Section 3.4 — total time, %d ins/del ops, %d processors (paper: ratio 1.5-2, \"1.5 more typical\")", sc.Ops, sc.Procs),
			[]int{200, 500, 1000, 1500, 2000}, 0},
		{"Section 3.4 supplement — 80% searches (read-heavy kernel mix)", []int{200, 1000}, 80},
	} {
		t := Table{Title: mix.title, Labels: []string{"list size"},
			Values: []Column{{Name: "wait-free"}, {Name: "lock-free [7]"}, {Name: "ratio", Prec: 2}}}
		for _, size := range mix.sizes {
			wf := float64(listRun(sc, workload.WaitFree, 4, 25, size, mix.searchPct).Makespan)
			lf := float64(listRun(sc, workload.LockFreeGC, 4, 25, size, mix.searchPct).Makespan)
			t.add([]string{fmt.Sprint(size)}, wf, lf, wf/lf)
		}
		ts = append(ts, t)
	}
	return ts
}

// retries measures the Section 3.4 worst-case comparison: lock-free retry
// counts vs the wait-free bounded response under single-operation bursts.
func retries(sc Scale) []Table {
	t := Table{Title: fmt.Sprintf("Section 3.4 — worst cases on %d processors (paper: retries 10-30 common, 30-50 frequent; wait-free <= %d x interference-free)", sc.Procs, 2*sc.Procs),
		Labels: []string{"list size"},
		Values: []Column{{Name: "lock-free worst retries"}, {Name: "wait-free retries"}, {Name: "wait-free worst/interference-free", Prec: 1}}}
	for _, size := range []int{200, 500, 1000} {
		lf := listRun(sc, workload.LockFreeGC, 4, 25, size, 0)
		wf := listRun(sc, workload.WaitFree, 3, 1, size, 0)
		t.add([]string{fmt.Sprint(size)}, float64(lf.WorstRetries), float64(wf.Retries), float64(wf.WorstOp)/float64(wf.BaseOp))
	}
	return []Table{t}
}

// valoisCmp measures the [7]-cited comparison: CAS2 lock-free vs CAS-only
// (Valois) under high contention on a 64-key hot list.
func valoisCmp(sc Scale) []Table {
	t := Table{Title: "Section 3.4 — CAS2 lock-free vs CAS-only under high contention, sync cost 8 ([7] reports ~10x)",
		Labels: []string{"implementation"}, Values: []Column{{Name: "total time"}, {Name: "vs lock-free", Prec: 2}}}
	var base float64
	for _, impl := range []struct {
		name string
		mk   func(shmem.Memory, *arena.Arena) workload.List
	}{
		{"lock-free CAS2 [7]", func(m shmem.Memory, ar *arena.Arena) workload.List { return must(gclist.New(m, ar, 4)) }},
		{"CAS-only, Valois cost model [13]", func(m shmem.Memory, ar *arena.Arena) workload.List {
			l := must(valois.New(m, ar, 4))
			l.SetRefCounted(true)
			return l
		}},
		{"CAS-only, modern mark-bit (no reclamation)", func(m shmem.Memory, ar *arena.Arena) workload.List { return must(valois.New(m, ar, 4)) }},
	} {
		s := sched.New(sched.Config{Processors: 4, Seed: sc.Seed, MemWords: 1 << 18, Granularity: sched.Coarse, SyncCost: 8})
		ar := must(arena.New(s.Mem(), 1<<14, 4))
		l := impl.mk(s.Mem(), ar)
		ar.Freeze()
		total := run(s, perCPU(4, func(int) func(*sched.Env) {
			return func(e *sched.Env) {
				for op := 0; op < 1000; op++ {
					key := uint64(1 + e.Rand().Intn(64))
					if e.Rand().Intn(2) == 0 {
						l.Insert(e, key, key)
					} else {
						l.Delete(e, key)
					}
				}
			}
		})...)
		if base == 0 {
			base = total
		}
		t.add([]string{impl.name}, total, total/base)
	}
	return []Table{t}
}

// ablations measures the design-choice ablations A1, A2, A3, A6 and A4.
func ablations(sc Scale) []Table {
	seed := sc.Seed
	// A1: N processes spread over 4 processors, N/4 per priority level,
	// each running one operation.
	a1 := Table{Title: "A1 — processor-indexed helping (2PT, this paper) vs process-indexed (2NT, Herlihy [8]); P=4",
		Labels: []string{"N processes"},
		Values: []Column{{Name: "wait-free list"}, {Name: "universal construction"}, {Name: "UC/WF", Prec: 2}}}
	for _, n := range []int{4, 8, 16, 32} {
		spread := func(s *sched.Sim, op func(e *sched.Env, p int)) float64 {
			for p := 0; p < n; p++ {
				s.Spawn(sched.JobSpec{CPU: p % 4, Prio: sched.Priority(p / 4), Slot: p, AfterSlices: -1, Body: func(e *sched.Env) { op(e, p) }})
			}
			return run(s)
		}
		s := sched.New(sched.Config{Processors: 4, Seed: seed, MemWords: 1 << 18})
		ar := must(arena.New(s.Mem(), 256, n))
		l := must(multilist.New(s.Mem(), ar, multilist.Config{Processors: 4, Procs: n}))
		ar.Freeze()
		wf := spread(s, func(e *sched.Env, p int) { l.Insert(e, uint64(p+1), 0) })
		s = sched.New(sched.Config{Processors: 4, Seed: seed, MemWords: 1 << 18})
		obj := must(herlihy.New(s.Mem(), n, 40, herlihy.SortedSetApply))
		uc := spread(s, func(e *sched.Env, p int) { obj.Do(e, 1, uint64(p+1)) })
		a1.add([]string{fmt.Sprint(n)}, wf, uc, uc/wf)
	}

	// A2: a late high-priority op while three processors run long scans.
	a2 := Table{Title: "A2 — response time of a late high-priority operation (paper: priority helping \"very effective\")",
		Labels: []string{"helping mode"}, Values: []Column{{Name: "hi-priority op response"}}}
	for _, mode := range []helping.Mode{helping.Cyclic, helping.Priority} {
		s := sched.New(sched.Config{Processors: 4, Seed: seed, MemWords: 1 << 18})
		l := seeded(s, 340, 4, 300, func(ar *arena.Arena) (*multilist.List, error) {
			return multilist.New(s.Mem(), ar, multilist.Config{Processors: 4, Procs: 4, Mode: mode})
		})
		var hi int64
		scans := perCPU(4, func(int) func(*sched.Env) {
			return func(e *sched.Env) {
				for k := 0; k < 3; k++ {
					l.Search(e, 3005)
				}
			}
		})[1:]
		run(s, append(scans, sched.JobSpec{Name: "hi", CPU: 0, Prio: 9, Slot: 0, At: 700, AfterSlices: -1,
			Body: timed(&hi, func(e *sched.Env) { l.Search(e, 3005) })})...)
		a2.add([]string{mode.String()}, float64(hi))
	}

	// A3: one vs two helping rounds ([1]).
	a3 := Table{Title: "A3 — helping rounds per operation", Labels: []string{"mode"}, Values: []Column{{Name: "total time"}}}
	for _, oneRound := range []bool{false, true} {
		s := sched.New(sched.Config{Processors: 4, Seed: seed, MemWords: 1 << 14})
		obj := must(multimwcas.New(s.Mem(), multimwcas.Config{Processors: 4, Procs: 4, Width: 2, OneRound: oneRound}))
		words, _, _ := appWords(s, 2, obj.InitWord)
		total := run(s, perCPU(4, func(int) func(*sched.Env) {
			return func(e *sched.Env) {
				for k := 0; k < 25; k++ {
					a := obj.ReadWord(e, words[0])
					c := obj.ReadWord(e, words[1])
					obj.MWCAS(e, words, []uint64{a, c}, []uint64{a + 1, c + 1})
				}
			}
		})...)
		name := "two rounds (general)"
		if oneRound {
			name = "one round ([1], RT scheduler)"
		}
		a3.add([]string{name}, total)
	}

	// A6: one low-priority scan against bursts of high-priority scans.
	a6 := Table{Title: "A6 — low-priority starvation under priority helping (paper's Section 3.4 caveat): cyclic bounds the wait, priority helping grows with the high-priority stream",
		Labels: []string{"high-prio ops per cpu"},
		Values: []Column{{Name: "cyclic low response"}, {Name: "priority low response"}}}
	lowResp := func(mode helping.Mode, burst int) float64 {
		s := sched.New(sched.Config{Processors: 4, Seed: seed, MemWords: 1 << 19})
		l := seeded(s, 1024, 4, 200, func(ar *arena.Arena) (*multilist.List, error) {
			return multilist.New(s.Mem(), ar, multilist.Config{Processors: 4, Procs: 4, Mode: mode})
		})
		var low int64
		jobs := []sched.JobSpec{{Name: "low", CPU: 0, Prio: 1, Slot: 0, AfterSlices: -1, Body: timed(&low, func(e *sched.Env) { l.Search(e, 2005) })}}
		for cpu := 1; cpu < 4; cpu++ {
			jobs = append(jobs, sched.JobSpec{CPU: cpu, Prio: 9, Slot: cpu, At: int64(cpu), AfterSlices: -1, Body: func(e *sched.Env) {
				for i := 0; i < burst; i++ {
					l.Search(e, 2005)
				}
			}})
		}
		run(s, jobs...)
		return float64(low)
	}
	for _, burst := range []int{2, 4, 8} {
		a6.add([]string{fmt.Sprint(burst)}, lowResp(helping.Cyclic, burst), lowResp(helping.Priority, burst))
	}

	// A4: Findpos stride under cheap vs expensive synchronization.
	a4 := Table{Title: "A4 — Findpos checkpoint stride (paper used k=100; pays off when synchronization is expensive)",
		Labels: []string{"sync cost", "stride k"}, Values: []Column{{Name: "total time"}}}
	for _, syncCost := range []int64{1, 8} {
		for _, stride := range []int{1, 10, 100} {
			res := must(workload.RunList(workload.ListConfig{
				Kind: workload.WaitFree, Processors: 4, BurstsPerCPU: 2, BurstOps: 10,
				TotalOps: 500, ListSize: 400, Seed: seed, Stride: stride, SyncCost: syncCost,
			}))
			a4.add([]string{fmt.Sprint(syncCost), fmt.Sprint(stride)}, float64(res.Makespan))
		}
	}
	return []Table{a1, a2, a3, a6, a4}
}

// extensions measures the Section 4 extension structures (queue, stack,
// hash table) and the real-time schedulability story built on the paper's
// bounds.
func extensions(sc Scale) []Table {
	t := Table{Title: "Section 4 extensions — queue, stack, hash table (virtual units)",
		Labels: []string{"operation"}, Values: []Column{{Name: "cost"}}}
	// An op pair preempted once by the same pair and helped.
	for _, obj := range []struct {
		name string
		mk   func(shmem.Memory, *arena.Arena) func(*sched.Env)
	}{
		{"uni queue (enq+deq, helped once)", func(m shmem.Memory, ar *arena.Arena) func(*sched.Env) {
			q := must(uniqueue.New(m, ar, 2))
			return func(e *sched.Env) { q.Enqueue(e, 1); q.Dequeue(e) }
		}},
		{"uni stack (push+pop, helped once)", func(m shmem.Memory, ar *arena.Arena) func(*sched.Env) {
			st := must(unistack.New(m, ar, 2))
			return func(e *sched.Env) { st.Push(e, 1); st.Pop(e) }
		}},
	} {
		s := sched.New(sched.Config{Processors: 1, Seed: sc.Seed, MemWords: 1 << 18})
		ar := must(arena.New(s.Mem(), 64, 2))
		op := obj.mk(s.Mem(), ar)
		ar.Freeze()
		var cost int64
		run(s,
			sched.JobSpec{Name: "victim", CPU: 0, Prio: 1, Slot: 0, AfterSlices: -1, Body: timed(&cost, op)},
			sched.JobSpec{Name: "adv", CPU: 0, Prio: 9, Slot: 1, AfterSlices: 20, Body: op})
		t.add([]string{obj.name}, float64(cost))
	}
	for _, k := range []int{1, 4, 16} {
		s := sched.New(sched.Config{Processors: 1, Seed: sc.Seed, MemWords: 1 << 19})
		ar := must(arena.New(s.Mem(), 320, 1))
		tb := must(multihash.New(s.Mem(), ar, multihash.Config{Processors: 1, Procs: 1, Buckets: k}))
		keys := make([]uint64, 256)
		for i := range keys {
			keys[i] = uint64(i + 1)
		}
		check(tb.SeedKeys(keys))
		ar.Freeze()
		var cost int64
		run(s, solo(timed(&cost, func(e *sched.Env) { tb.Search(e, 256) })))
		t.add([]string{fmt.Sprintf("hash search, 256 keys, K=%d buckets", k)}, float64(cost))
	}

	tasks := rt.AssignRateMonotonic([]rt.Task{
		{Name: "sensor", Period: 4000, BaseCost: 300, Ops: 2, OpCost: 140},
		{Name: "control", Period: 9000, BaseCost: 800, Ops: 3, OpCost: 140},
		{Name: "logger", Period: 20000, BaseCost: 2000, Ops: 4, OpCost: 140},
	})
	rta := Table{Title: fmt.Sprintf("Real-time response-time analysis with wait-free helping surcharge (utilization %.2f, Liu-Layland bound %.2f)",
		rt.TotalUtilization(tasks), rt.LiuLaylandBound(len(tasks))),
		Labels: []string{"task", "schedulable"},
		Values: []Column{{Name: "period"}, {Name: "WCET (2T ops)"}, {Name: "response bound"}}}
	for _, a := range must(rt.ResponseTimeAnalysis(tasks)) {
		rta.add([]string{a.Task.Name, fmt.Sprint(a.Schedulable)}, float64(a.Task.Period), float64(a.WCET), float64(a.Response))
	}
	return []Table{t, rta}
}

// mwcasTable measures MWCAS transaction throughput under priority
// preemption (the read-compute-MWCAS usage of Section 3.1), across
// processors and widths.
func mwcasTable(sc Scale) []Table {
	t := Table{Title: "MWCAS transactions — 2000 commits, 8 shared words, preemption bursts",
		Labels: []string{"kind", "P", "W"},
		Values: []Column{{Name: "total time"}, {Name: "conflict retries"}, {Name: "worst op"}}}
	for _, pw := range []struct{ p, w int }{{1, 2}, {1, 4}, {2, 2}, {4, 2}, {4, 4}} {
		kind := workload.MWCASMulti
		if pw.p == 1 {
			kind = workload.MWCASUni
		}
		res := must(workload.RunMWCAS(workload.MWCASConfig{
			Kind: kind, Processors: pw.p, Words: 8, Width: pw.w,
			TotalCommits: 2000, BurstsPerCPU: 2, BurstCommits: 20, Seed: sc.Seed,
		}))
		t.add([]string{string(kind), fmt.Sprint(pw.p), fmt.Sprint(pw.w)}, float64(res.Makespan), float64(res.Failures), float64(res.WorstOp))
	}
	return []Table{t}
}
