package sched

import (
	"reflect"
	"testing"

	"repro/internal/metrics"
	"repro/internal/shmem"
)

// opCountsRun is what TestOpCountsExact compares between two runs of one
// cast: the per-process and setup tallies and the global step count.
type opCountsRun struct {
	procs []metrics.OpCounts
	setup metrics.OpCounts
	steps uint64
}

// spawnOpCountsCast sets up s with three processes on two processors that
// mix every kind of access, with CAS, CAS2 and CCAS both succeeding and
// failing, and, under Coarse granularity, scan further than one slice. It
// installs an observer and a fail hook that check, at every event, that
// the event's step is the memory's step count, that steps strictly
// increase across operations (the two writes of one CAS2 share its step),
// and that the tallies sum to the step count. It returns the number of
// accesses each process's body makes, counted by the body itself.
func spawnOpCountsCast(t *testing.T, s *Sim) *[3]uint64 {
	t.Helper()
	m := s.Mem()
	ctr := m.MustAlloc("ctr", 1)
	ver := m.MustAlloc("ver", 1)
	pair := m.MustAlloc("pair", 2)
	scan := m.MustAlloc("scan", 2*coarseSliceOps)
	for i := 0; i < 2*coarseSliceOps; i++ {
		m.Store(scan+shmem.Addr(i), uint64(i))
	}
	m.Load(ctr)

	var last uint64
	var cas2Half bool
	check := func(kind string, step uint64, cas2 bool) {
		if step != m.Steps() {
			t.Errorf("%s event at step %d, Mem.Steps() = %d", kind, step, m.Steps())
		}
		switch {
		case cas2Half && cas2 && step == last:
			cas2Half = false
		case step <= last && last != 0:
			t.Errorf("%s event at step %d after step %d", kind, step, last)
		default:
			cas2Half = cas2
		}
		last = step
		total := m.SetupOpCounts().Steps()
		for p := range s.Procs() {
			total += m.ProcOpCounts(p).Steps()
		}
		if total != m.Steps() {
			t.Errorf("%s event at step %d: tallies sum to %d", kind, step, total)
		}
	}
	m.AddObserver(shmem.ObserverFunc(func(ev shmem.WriteEvent) {
		check("write", ev.Step, ev.Kind == shmem.OpCAS2)
	}))
	m.SetFailHook(func(ev shmem.FailEvent) { check("fail", ev.Step, false) })

	var made [3]uint64
	body := func(e *Env) {
		for round := 0; round < 4; round++ {
			var sum uint64
			for i := 0; i < 2*coarseSliceOps; i++ {
				sum += e.Load(scan + shmem.Addr(i))
			}
			e.Store(scan+shmem.Addr(e.Me()), sum)
			for {
				made[e.Me()] += 2
				v := e.Load(ctr)
				if e.CAS(ctr, v, v+1) {
					break
				}
			}
			e.CAS(ctr, ^uint64(0), 0)
			a, b := e.Load(pair), e.Load(pair+1)
			e.CAS2(pair, pair+1, a, b, a+1, b+1)
			e.CAS2(pair, pair+1, a, b, a, b)
			e.CCASNative(ver, 0, ctr, e.Load(ctr), 7)
			e.CCASNative(ver, 1, ctr, 7, 0)
			e.GuardedCAS(ver, 0, ctr, 7, uint64(round)) // ver stays 0: Load and CAS
			e.Yield()
			made[e.Me()] += 2*coarseSliceOps + 1 + 1 + 4 + 3 + 2
		}
	}
	s.SpawnAt(0, 0, 1, "low0", body)
	s.SpawnAt(0, 1, 1, "low1", body)
	s.SpawnAt(40, 0, 5, "high0", body)
	return &made
}

// checkOpCountsRun runs the cast on s and returns its tallies, after
// checking that each process's block holds exactly the accesses its body
// made and that the blocks sum to Steps().
func checkOpCountsRun(t *testing.T, s *Sim) opCountsRun {
	t.Helper()
	m := s.Mem()
	if m.Steps() != 0 || m.SetupOpCounts() != (metrics.OpCounts{}) {
		t.Fatalf("fresh Sim starts at steps=%d setup=%+v", m.Steps(), m.SetupOpCounts())
	}
	for p := 0; p < 3; p++ {
		if c := m.ProcOpCounts(p); c != (metrics.OpCounts{}) {
			t.Fatalf("fresh Sim starts with proc %d counts %+v", p, c)
		}
	}
	made := spawnOpCountsCast(t, s)
	if err := s.Run(); err != nil {
		t.Fatalf("Run: %v", err)
	}
	r := opCountsRun{setup: m.SetupOpCounts(), steps: m.Steps()}
	for p := range s.Procs() {
		r.procs = append(r.procs, m.ProcOpCounts(p))
	}
	if want := uint64(2*coarseSliceOps + 1); r.setup.Steps() != want {
		t.Errorf("setup counts %+v, want %d accesses", r.setup, want)
	}
	total := r.setup.Steps()
	for p, c := range r.procs {
		if c.Steps() != made[p] {
			t.Errorf("proc %d counts %+v (%d accesses), its body made %d", p, c, c.Steps(), made[p])
		}
		if c.CASFail == 0 || c.CAS2Fail == 0 || c.CCASFail == 0 {
			t.Errorf("proc %d counts %+v: want failures of every kind", p, c)
		}
		total += c.Steps()
	}
	if total != r.steps {
		t.Errorf("tallies sum to %d, Steps() = %d", total, r.steps)
	}
	return r
}

// TestOpCountsExact: the per-process counter blocks the memory points to at
// dispatch keep exact counts under both granularities, and a Sim reused
// through Reset or the Acquire/Release pool starts from zero blocks and
// reproduces the first run's counts.
func TestOpCountsExact(t *testing.T) {
	for _, g := range []Granularity{Fine, Coarse} {
		t.Run(g.String(), func(t *testing.T) {
			cfg := Config{Processors: 2, Seed: 5, MemWords: 1 << 10, Granularity: g}
			s := New(cfg)
			first := checkOpCountsRun(t, s)

			if again := checkOpCountsRun(t, s.Reset(cfg)); !reflect.DeepEqual(first, again) {
				t.Errorf("after Reset: %+v, first run %+v", again, first)
			}

			p := Acquire(cfg)
			pooled := checkOpCountsRun(t, p)
			Release(p)
			p = Acquire(cfg)
			reused := checkOpCountsRun(t, p)
			Release(p)
			if !reflect.DeepEqual(first, pooled) || !reflect.DeepEqual(first, reused) {
				t.Errorf("through Acquire/Release: %+v then %+v, first run %+v", pooled, reused, first)
			}
		})
	}
}
