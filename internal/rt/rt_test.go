package rt_test

import (
	"math"
	"testing"

	"repro/internal/arena"
	"repro/internal/core/multilist"
	"repro/internal/core/unilist"
	"repro/internal/rt"
	"repro/internal/sched"
)

func TestRateMonotonicOrder(t *testing.T) {
	tasks := []rt.Task{
		{Name: "slow", Period: 1000, BaseCost: 10},
		{Name: "fast", Period: 100, BaseCost: 10},
		{Name: "mid", Period: 500, BaseCost: 10},
		{Name: "mid2", Period: 500, BaseCost: 10},
	}
	ordered := rt.AssignRateMonotonic(tasks)
	want := []string{"fast", "mid", "mid2", "slow"}
	for i, w := range want {
		if ordered[i].Name != w {
			t.Fatalf("order = %v, want %v", names(ordered), want)
		}
	}
}

func names(ts []rt.Task) []string {
	out := make([]string, len(ts))
	for i, t := range ts {
		out[i] = t.Name
	}
	return out
}

func TestWCETIncludesHelpingSurcharge(t *testing.T) {
	task := rt.Task{Name: "t", Period: 100, BaseCost: 10, Ops: 3, OpCost: 5}
	if got := task.WCET(); got != 10+2*3*5 {
		t.Errorf("WCET = %d, want %d (base + 2*ops*opcost)", got, 10+2*3*5)
	}
}

func TestResponseTimeAnalysisClassic(t *testing.T) {
	// The textbook example: three tasks, exact interference accounting.
	tasks := rt.AssignRateMonotonic([]rt.Task{
		{Name: "a", Period: 100, BaseCost: 25},
		{Name: "b", Period: 175, BaseCost: 35},
		{Name: "c", Period: 300, BaseCost: 60},
	})
	as, err := rt.ResponseTimeAnalysis(tasks)
	if err != nil {
		t.Fatal(err)
	}
	// a: 25. b: 35 + ceil(R/100)*25 -> 60. c: 60 + ceil(R/100)*25 +
	// ceil(R/175)*35 -> 60+25+35=120 -> 60+2*25+35=145 -> 145: check.
	wantResponses := []int64{25, 60, 145}
	for i, want := range wantResponses {
		if as[i].Response != want {
			t.Errorf("task %s response = %d, want %d", as[i].Task.Name, as[i].Response, want)
		}
		if !as[i].Schedulable {
			t.Errorf("task %s reported unschedulable", as[i].Task.Name)
		}
	}
	if !rt.Schedulable(as) {
		t.Error("set reported unschedulable")
	}
}

func TestUnschedulableDetected(t *testing.T) {
	tasks := rt.AssignRateMonotonic([]rt.Task{
		{Name: "hog", Period: 100, BaseCost: 90},
		{Name: "late", Period: 200, BaseCost: 50},
	})
	as, err := rt.ResponseTimeAnalysis(tasks)
	if err != nil {
		t.Fatal(err)
	}
	if rt.Schedulable(as) {
		t.Fatal("overloaded set reported schedulable")
	}
	if as[1].Schedulable {
		t.Error("the low-priority task should miss its deadline")
	}
}

func TestAnalysisValidation(t *testing.T) {
	if _, err := rt.ResponseTimeAnalysis([]rt.Task{{Name: "bad", Period: 0, BaseCost: 1}}); err == nil {
		t.Error("zero period accepted")
	}
	if _, err := rt.ResponseTimeAnalysis([]rt.Task{{Name: "bad", Period: 10}}); err == nil {
		t.Error("zero WCET accepted")
	}
}

func TestLiuLaylandBound(t *testing.T) {
	if got := rt.LiuLaylandBound(1); got != 1.0 {
		t.Errorf("bound(1) = %f, want 1", got)
	}
	if got := rt.LiuLaylandBound(3); math.Abs(got-0.7797) > 0.001 {
		t.Errorf("bound(3) = %f, want ~0.7798", got)
	}
	// The bound decreases toward ln 2.
	if rt.LiuLaylandBound(100) < math.Ln2-0.001 || rt.LiuLaylandBound(100) > rt.LiuLaylandBound(3) {
		t.Error("bound not decreasing toward ln 2")
	}
}

// TestAnalysisValidatedBySimulation is the package's point: a schedulable
// task set whose jobs share a wait-free list meets every deadline in the
// simulator, and each task's measured worst response stays within the
// analytical response bound (which uses the paper's 2T helping surcharge).
func TestAnalysisValidatedBySimulation(t *testing.T) {
	const listSize = 40
	// Calibrate the interference-free cost of the worst list operation
	// (a full-scan search).
	opCost := func() int64 {
		s := sched.New(sched.Config{Processors: 1, Seed: 1, MemWords: 1 << 16})
		ar, err := arena.New(s.Mem(), listSize+8, 1)
		if err != nil {
			t.Fatal(err)
		}
		l, err := unilist.New(s.Mem(), ar, 1)
		if err != nil {
			t.Fatal(err)
		}
		keys := make([]uint64, listSize)
		for i := range keys {
			keys[i] = uint64(10 * (i + 1))
		}
		if err := l.SeedAscending(keys); err != nil {
			t.Fatal(err)
		}
		ar.Freeze()
		var cost int64
		s.SpawnAt(0, 0, 1, "cal", func(e *sched.Env) {
			start := e.Now()
			l.Search(e, 10*listSize+5)
			cost = e.Now() - start
		})
		if err := s.Run(); err != nil {
			t.Fatal(err)
		}
		return cost
	}()

	tasks := rt.AssignRateMonotonic([]rt.Task{
		{Name: "sensor", Period: 4_000, BaseCost: 300, Ops: 2, OpCost: opCost},
		{Name: "control", Period: 9_000, BaseCost: 800, Ops: 3, OpCost: opCost},
		{Name: "logger", Period: 20_000, BaseCost: 2_000, Ops: 4, OpCost: opCost},
	})
	as, err := rt.ResponseTimeAnalysis(tasks)
	if err != nil {
		t.Fatal(err)
	}
	if !rt.Schedulable(as) {
		t.Fatalf("task set unexpectedly unschedulable: %+v (opCost %d)", as, opCost)
	}

	// Simulate: 5 hyper-ish periods of jobs sharing one wait-free list.
	s := sched.New(sched.Config{Processors: 1, Seed: 3, MemWords: 1 << 18})
	ar, err := arena.New(s.Mem(), listSize+64, len(tasks))
	if err != nil {
		t.Fatal(err)
	}
	l, err := unilist.New(s.Mem(), ar, len(tasks))
	if err != nil {
		t.Fatal(err)
	}
	keys := make([]uint64, listSize)
	for i := range keys {
		keys[i] = uint64(10 * (i + 1))
	}
	if err := l.SeedAscending(keys); err != nil {
		t.Fatal(err)
	}
	ar.Freeze()

	const horizon = 100_000
	type jobRec struct {
		task int
		proc *sched.Proc
	}
	var jobs []jobRec
	for ti, task := range tasks {
		ti, task := ti, task
		prio := sched.Priority(len(tasks) - ti) // RM: order index -> priority
		for rel := int64(0); rel+task.Period <= horizon; rel += task.Period {
			p := s.Spawn(sched.JobSpec{
				Name: task.Name, CPU: 0, Prio: prio, Slot: ti, At: rel, AfterSlices: -1,
				Body: func(e *sched.Env) {
					for op := 0; op < task.Ops; op++ {
						l.Search(e, 10*listSize+5) // worst-case op
					}
					e.Delay(task.BaseCost)
				},
			})
			jobs = append(jobs, jobRec{task: ti, proc: p})
		}
	}
	if err := s.Run(); err != nil {
		t.Fatal(err)
	}

	worst := make([]int64, len(tasks))
	for _, j := range jobs {
		r := j.proc.Completed - j.proc.Released
		if r > worst[j.task] {
			worst[j.task] = r
		}
	}
	for i, a := range as {
		if worst[i] > a.Response {
			t.Errorf("task %s: measured worst response %d exceeds analytical bound %d",
				a.Task.Name, worst[i], a.Response)
		}
		if worst[i] > a.Task.Period {
			t.Errorf("task %s missed a deadline: response %d > period %d", a.Task.Name, worst[i], a.Task.Period)
		}
		t.Logf("task %-8s analytical %6d  measured %6d  period %6d", a.Task.Name, a.Response, worst[i], a.Task.Period)
	}
}

func TestMultiWCET(t *testing.T) {
	task := rt.Task{Name: "t", Period: 100, BaseCost: 10, Ops: 2, OpCost: 5}
	if got := task.MultiWCET(4); got != 10+2*4*2*5 {
		t.Errorf("MultiWCET(4) = %d, want %d", got, 10+2*4*2*5)
	}
	if got := task.MultiWCET(0); got != task.WCET() {
		t.Errorf("MultiWCET(0) = %d, want uniprocessor WCET %d", got, task.WCET())
	}
}

func TestPartitionedAnalysis(t *testing.T) {
	tasks := []rt.Task{
		{Name: "a", Period: 4000, BaseCost: 200, Ops: 1, OpCost: 100},
		{Name: "b", Period: 8000, BaseCost: 400, Ops: 1, OpCost: 100},
		{Name: "c", Period: 4000, BaseCost: 200, Ops: 1, OpCost: 100},
	}
	as, err := rt.PartitionedAnalysis(tasks, []int{0, 0, 1}, 2)
	if err != nil {
		t.Fatal(err)
	}
	if len(as[0]) != 2 || len(as[1]) != 1 {
		t.Fatalf("partition sizes wrong: %d, %d", len(as[0]), len(as[1]))
	}
	// Task a on cpu0: WCET = 200 + 2*2*1*100 = 600; alone at top priority
	// its response is its WCET.
	if as[0][0].Response != 600 {
		t.Errorf("task a response = %d, want 600 (2PT surcharge with P=2)", as[0][0].Response)
	}
	for cpu, list := range as {
		for _, a := range list {
			if !a.Schedulable {
				t.Errorf("cpu %d task %s unschedulable: %+v", cpu, a.Task.Name, a)
			}
		}
	}
	if _, err := rt.PartitionedAnalysis(tasks, []int{0}, 2); err == nil {
		t.Error("mismatched assignment accepted")
	}
	if _, err := rt.PartitionedAnalysis(tasks, []int{0, 0, 5}, 2); err == nil {
		t.Error("out-of-range cpu accepted")
	}
}

// TestPartitionedAnalysisValidatedBySimulation: a partitioned two-processor
// task set sharing a multiprocessor wait-free list meets the analytical
// bounds in simulation.
func TestPartitionedAnalysisValidatedBySimulation(t *testing.T) {
	const listSize = 30
	const nCPU = 2
	// Calibrate a full scan on the multiprocessor list: a Delete of an
	// absent key (a Search would take the read-only walk).
	opCost := func() int64 {
		s := sched.New(sched.Config{Processors: nCPU, Seed: 1, MemWords: 1 << 17})
		ar, err := arena.New(s.Mem(), listSize+8, 1)
		if err != nil {
			t.Fatal(err)
		}
		l, err := multilist.New(s.Mem(), ar, multilist.Config{Processors: nCPU, Procs: 1})
		if err != nil {
			t.Fatal(err)
		}
		keys := make([]uint64, listSize)
		for i := range keys {
			keys[i] = uint64(10 * (i + 1))
		}
		if err := l.SeedAscending(keys); err != nil {
			t.Fatal(err)
		}
		ar.Freeze()
		var cost int64
		s.SpawnAt(0, 0, 1, "cal", func(e *sched.Env) {
			start := e.Now()
			l.Delete(e, 10*listSize+5)
			cost = e.Now() - start
		})
		if err := s.Run(); err != nil {
			t.Fatal(err)
		}
		return cost
	}()

	tasks := []rt.Task{
		{Name: "t0fast", Period: 8_000, BaseCost: 300, Ops: 1, OpCost: opCost},
		{Name: "t0slow", Period: 24_000, BaseCost: 900, Ops: 2, OpCost: opCost},
		{Name: "t1fast", Period: 8_000, BaseCost: 300, Ops: 1, OpCost: opCost},
		{Name: "t1slow", Period: 24_000, BaseCost: 900, Ops: 2, OpCost: opCost},
	}
	assign := []int{0, 0, 1, 1}
	analysis, err := rt.PartitionedAnalysis(tasks, assign, nCPU)
	if err != nil {
		t.Fatal(err)
	}
	for cpu, as := range analysis {
		if !rt.Schedulable(as) {
			t.Fatalf("cpu %d unschedulable: %+v (opCost %d)", cpu, as, opCost)
		}
	}

	// Simulate.
	s := sched.New(sched.Config{Processors: nCPU, Seed: 7, MemWords: 1 << 19})
	ar, err := arena.New(s.Mem(), listSize+64, len(tasks))
	if err != nil {
		t.Fatal(err)
	}
	l, err := multilist.New(s.Mem(), ar, multilist.Config{Processors: nCPU, Procs: len(tasks)})
	if err != nil {
		t.Fatal(err)
	}
	keys := make([]uint64, listSize)
	for i := range keys {
		keys[i] = uint64(10 * (i + 1))
	}
	if err := l.SeedAscending(keys); err != nil {
		t.Fatal(err)
	}
	ar.Freeze()

	const horizon = 96_000
	type jobRec struct {
		task int
		proc *sched.Proc
	}
	var jobs []jobRec
	for ti, task := range tasks {
		ti, task := ti, task
		var prio sched.Priority = 1
		if task.Period < 20_000 {
			prio = 2 // rate-monotonic within each processor
		}
		for rel := int64(0); rel+task.Period <= horizon; rel += task.Period {
			pr := s.Spawn(sched.JobSpec{
				Name: task.Name, CPU: assign[ti], Prio: prio, Slot: ti, At: rel, AfterSlices: -1,
				Body: func(e *sched.Env) {
					for op := 0; op < task.Ops; op++ {
						l.Delete(e, 10*listSize+5)
					}
					e.Delay(task.BaseCost)
				},
			})
			jobs = append(jobs, jobRec{task: ti, proc: pr})
		}
	}
	if err := s.Run(); err != nil {
		t.Fatal(err)
	}
	worst := make([]int64, len(tasks))
	for _, j := range jobs {
		if r := j.proc.Completed - j.proc.Released; r > worst[j.task] {
			worst[j.task] = r
		}
	}
	// Match analytical entries back to tasks by name.
	bound := map[string]int64{}
	for _, as := range analysis {
		for _, a := range as {
			bound[a.Task.Name] = a.Response
		}
	}
	for ti, task := range tasks {
		if worst[ti] > bound[task.Name] {
			t.Errorf("task %s: measured %d exceeds analytical bound %d", task.Name, worst[ti], bound[task.Name])
		}
		t.Logf("task %-7s analytical %6d  measured %6d  period %6d", task.Name, bound[task.Name], worst[ti], task.Period)
	}
}
