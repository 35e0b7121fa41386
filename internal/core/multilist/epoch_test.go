package multilist_test

import (
	"fmt"
	"testing"

	"repro/internal/arena"
	"repro/internal/check"
	"repro/internal/core/multilist"
	"repro/internal/prim"
	"repro/internal/sched"
	"repro/internal/tracex"
	"repro/internal/workload"
)

// nodeOf returns the node holding key in a quiescent list (no simulated
// time).
func nodeOf(t *testing.T, fx *fixture, key uint64) arena.Ref {
	t.Helper()
	m := fx.sim.Mem()
	for r := fx.list.First(); r != fx.list.Last(); r = arena.Ref(m.Peek(fx.ar.NextAddr(r))) {
		if m.Peek(fx.ar.KeyAddr(r)) == key {
			return r
		}
	}
	t.Fatalf("key %d not in the list", key)
	return arena.NIL
}

// TestEpochWindowSweep attacks the structure epoch where a late helper
// must bump it: between a splice or unsplice CCAS and the Rv CCAS of the
// same round. On cpu 0 a priority-1 mover deletes 30 and inserts 95,
// which pops node 30 straight back off its free list and rewrites its key.
// A priority-9 helper on cpu 0, released at every slice of the mover's run,
// preempts it and drives its pending operation to completion through its
// own Delete of an absent key. On cpu 1 a priority-1 Search(90) walks
// 10..100; a priority-9 job on cpu 1, released at every slice of that
// walk's start, holds it until node 30 carries key 95. A walk held while
// standing on 20 reads 20's next (node 30) before the unsplice and its key
// after the rewrite, and would report 90 absent unless S moved.
//
// It kills two wrong epochs: S bumped after the Rv CCAS (a mover preempted
// between its Rv and its bump leaves the round unmarked), and S bumped
// only by the helper whose own CCAS made the change (the late helper
// finds the unsplice done and reports without it).
func TestEpochWindowSweep(t *testing.T) {
	// The mover's Delete(30) ends within the run's first 160 global
	// slices; the walk reads 20's next within the first 24.
	for helperAt := int64(0); helperAt < 160; helperAt++ {
		for holdAt := int64(0); holdAt < 24; holdAt++ {
			if err := epochWindow(t, helperAt, holdAt); err != nil {
				t.Fatalf("helper at slice %d, hold at slice %d: %v", helperAt, holdAt, err)
			}
		}
	}
}

// epochWindow runs TestEpochWindowSweep's schedule with the helper
// released after helperAt global slices and the hold after holdAt.
func epochWindow(t *testing.T, helperAt, holdAt int64) error {
	const target = 90
	fx := newFixture(t, sched.Config{Processors: 2, Seed: 1},
		multilist.Config{Processors: 2, Procs: 4}, 64, tens(10))
	chk := check.NewMultiListChecker(fx.list, fx.sim.Mem())
	recycled := fx.ar.KeyAddr(nodeOf(t, fx, 30))
	op := func(p int, kind, key uint64, f func() bool) bool {
		chk.BeginOp(p, kind, key)
		got := f()
		chk.EndOp(p, got)
		return got
	}
	var failure error
	fx.sim.Spawn(sched.JobSpec{Name: "mover", CPU: 0, Prio: 1, Slot: 1, AfterSlices: -1, Body: func(e *sched.Env) {
		del := op(1, check.ListDel, 30, func() bool { return fx.list.Delete(e, 30) })
		ins := op(1, check.ListIns, 95, func() bool { return fx.list.Insert(e, 95, 95) })
		if !del || !ins {
			failure = fmt.Errorf("mover: Delete(30) %v, Insert(95) %v", del, ins)
		}
	}})
	fx.sim.Spawn(sched.JobSpec{Name: "helper", CPU: 0, Prio: 9, Slot: 2, AfterSlices: helperAt, Body: func(e *sched.Env) {
		op(2, check.ListDel, 5, func() bool { return fx.list.Delete(e, 5) })
	}})
	fx.sim.Spawn(sched.JobSpec{Name: "walk", CPU: 1, Prio: 1, Slot: 0, AfterSlices: -1, Body: func(e *sched.Env) {
		if !op(0, check.ListSch, target, func() bool { return fx.list.Search(e, target) }) {
			failure = fmt.Errorf("Search(%d) = false on a list that always holds it", target)
		}
	}})
	fx.sim.Spawn(sched.JobSpec{Name: "hold", CPU: 1, Prio: 9, Slot: 3, AfterSlices: holdAt, Body: func(e *sched.Env) {
		for e.Sim().Mem().Peek(recycled) != 95 {
			e.Delay(1) // a Yield costs no time and would starve cpu 0
		}
	}})
	if err := fx.sim.Run(); err != nil {
		return err
	}
	if failure != nil {
		return failure
	}
	chk.Finish()
	return chk.Err()
}

// TestReadFallbackRate pins how often the validated read fails in the
// simulator half of the list-read benchmark: the wait-free list on P=2,
// 256 keys, 90% search, eight 25-op bursts per processor. Fallbacks are
// the traced read-fallback notes; a Search answered by its read is an op
// span with no announce. Validated against V, ring steps that changed no
// link failed 56% of reads.
func TestReadFallbackRate(t *testing.T) {
	res, err := workload.RunList(workload.ListConfig{
		Kind: workload.WaitFree, Processors: 2, BurstsPerCPU: 8, BurstOps: 25,
		TotalOps: 10_000, ListSize: 256, SearchPercent: 90, Seed: 11, EnableTrace: true,
	})
	if err != nil {
		t.Fatal(err)
	}
	fallbacks := 0
	for _, ev := range res.TraceLog.Events() {
		if ev.Key == "read-fallback" {
			fallbacks++
		}
	}
	answered := 0
	for _, sp := range tracex.Build(res.TraceLog).OpSpans() {
		if sp.Announce == nil {
			answered++
		}
	}
	searches := answered + fallbacks
	rate := float64(fallbacks) / float64(searches)
	t.Logf("%d of %d reads fell back (%.1f%%)", fallbacks, searches, 100*rate)
	if rate >= 0.10 {
		t.Errorf("%.1f%% of reads fell back, want under 10%%", 100*rate)
	}
}

// TestEpochOnlyStructure: rounds that change no link leave S alone. Two
// processors run searches (hits and misses), duplicate inserts and deletes
// of absent keys, each preempted on its CPU by a priority-9 job doing the
// same, so the protocol helps across processors; S must still read 0, the
// Fig. 1 probes' premise (a Delete of an absent key costs what it did
// before S). One real insert afterwards must move it.
func TestEpochOnlyStructure(t *testing.T) {
	for _, cc := range prim.All() {
		fx := newFixture(t, sched.Config{Processors: 2, Seed: 1},
			multilist.Config{Processors: 2, Procs: 4, CC: cc}, 64, tens(10))
		noChange := func(e *sched.Env, i int) {
			k := uint64(10 * (1 + i%10))
			if !fx.list.Search(e, k) || fx.list.Search(e, k+5) ||
				fx.list.Insert(e, k, k) || fx.list.Delete(e, k+5) {
				t.Errorf("%s: wrong answer about key %d or %d", cc.Name(), k, k+5)
			}
		}
		for cpu := 0; cpu < 2; cpu++ {
			fx.sim.Spawn(sched.JobSpec{CPU: cpu, Prio: 1, Slot: cpu, AfterSlices: -1, Body: func(e *sched.Env) {
				for i := range 10 {
					noChange(e, cpu+i)
				}
			}})
			fx.sim.Spawn(sched.JobSpec{CPU: cpu, Prio: 9, Slot: 2 + cpu, AfterSlices: int64(40 + 70*cpu), Body: func(e *sched.Env) {
				for i := range 3 {
					noChange(e, 5+cpu+i)
				}
			}})
		}
		// Released at quiescence, once every other job has finished.
		var before uint64
		fx.sim.Spawn(sched.JobSpec{Name: "insert", CPU: 0, Prio: 1, Slot: 0, AfterSlices: 1 << 40, Body: func(e *sched.Env) {
			before = fx.list.Epoch()
			fx.list.Insert(e, 25, 25)
		}})
		if err := fx.sim.Run(); err != nil {
			t.Fatal(err)
		}
		if before != 0 {
			t.Errorf("%s: S = %d after rounds that changed no link, want 0", cc.Name(), before)
		}
		if helps := fx.sim.Report("multilist").HelpGiven; helps == 0 {
			t.Errorf("%s: no process helped another: the run exercises no helping round", cc.Name())
		}
		if fx.list.Epoch() == 0 {
			t.Errorf("%s: S still 0 after a splice", cc.Name())
		}
	}
}
