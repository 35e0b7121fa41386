package multilist_test

import (
	"errors"
	"fmt"
	"testing"

	"repro/internal/check"
	"repro/internal/core/multilist"
	"repro/internal/prim"
	"repro/internal/sched"
	"repro/internal/trace"
	"repro/internal/tracex"
)

// tens returns the keys 10, 20, ..., 10·n.
func tens(n int) []uint64 {
	keys := make([]uint64, n)
	for i := range keys {
		keys[i] = uint64(10 * (i + 1))
	}
	return keys
}

// TestReadRecycleWindow attacks Search's read-only walk where it is
// weakest: the node it stands on is deleted, recycled by an insert and
// relinked elsewhere while it walks. A priority-1 Search(90) walks the list
// 10..100 on cpu 0. From the offset-th slice of the run on, a priority-9 job
// on the same CPU is released after every hop of that walk and moves one
// node: Delete(from), then Insert(to), which pops the freed node straight
// back off the mover's free list with a new key and a new next. Every
// offset across the walk is tried, on one CPU and on two (where a second
// Search(90) runs on cpu 1).
//
//   - forward moves the node past the target: a walk standing on it reads
//     key 95 and would report 90 absent, unless the final version check
//     sends it to the protocol;
//   - backward moves the node in front of its predecessor and back, hop by
//     hop: a walk that does not recheck V every few hops circles those two
//     nodes for as long as the moves go on, and the moves outlast MaxSteps.
//
// Every run must answer true for both searches and leave the structural
// checker clean.
func TestReadRecycleWindow(t *testing.T) {
	const (
		target = 90
		// moveSlices is the global slice count every mover job
		// occupies: its Delete and Insert, padded with yields.
		moveSlices = 600
		maxSteps   = 200_000
	)
	for _, sc := range []struct {
		name     string
		from, to uint64
	}{
		{"forward", 30, 95},
		{"backward", 20, 5},
	} {
		for _, nCPU := range []int{1, 2} {
			t.Run(fmt.Sprintf("%s/cpus%d", sc.name, nCPU), func(t *testing.T) {
				// Between two movers the walk on cpu 0 makes one hop:
				// two slices, the next pointer and the key.
				const period = moveSlices + 2
				const movers = maxSteps/period + 2
				for offset := int64(1); offset <= 48; offset++ {
					fx := newFixture(t, sched.Config{Processors: nCPU, Seed: 1, MaxSteps: maxSteps},
						multilist.Config{Processors: nCPU, Procs: 3}, 64, tens(10))
					chk := check.NewMultiListChecker(fx.list, fx.sim.Mem())
					walking := nCPU
					for cpu := 0; cpu < nCPU; cpu++ {
						slot := 2 * cpu // walkers in slots 0 and 2, the movers in slot 1
						fx.sim.Spawn(sched.JobSpec{Name: fmt.Sprintf("walk%d", cpu), CPU: cpu, Prio: 1, Slot: slot, AfterSlices: -1,
							Body: func(e *sched.Env) {
								chk.BeginOp(slot, check.ListSch, target)
								got := fx.list.Search(e, target)
								chk.EndOp(slot, got)
								if !got {
									t.Errorf("offset %d: walker on cpu %d: Search(%d) = false on a list that always holds it", offset, cpu, target)
								}
								walking--
							}})
					}
					for i := int64(0); i < movers; i++ {
						from, to := sc.from, sc.to
						if i%2 == 1 {
							from, to = to, from
						}
						fx.sim.Spawn(sched.JobSpec{Name: fmt.Sprintf("move%d", i), CPU: 0, Prio: 9, Slot: 1, AfterSlices: offset + i*period,
							Body: func(e *sched.Env) {
								if walking == 0 {
									return
								}
								start := e.Sim().Slices()
								chk.BeginOp(1, check.ListDel, from)
								del := fx.list.Delete(e, from)
								chk.EndOp(1, del)
								chk.BeginOp(1, check.ListIns, to)
								ins := fx.list.Insert(e, to, to)
								chk.EndOp(1, ins)
								if !del || !ins {
									t.Errorf("offset %d: move %d→%d: Delete %v, Insert %v", offset, from, to, del, ins)
								}
								if used := e.Sim().Slices() - start; used >= moveSlices {
									t.Errorf("a move took %d slices, more than its %d", used, moveSlices)
									return
								}
								for e.Sim().Slices()-start < moveSlices-1 {
									e.Yield()
								}
							}})
					}
					if err := fx.sim.Run(); err != nil {
						if errors.Is(err, sched.ErrWatchdog) {
							t.Fatalf("offset %d: a walk never ended: %v", offset, err)
						}
						t.Fatalf("offset %d: %v", offset, err)
					}
					chk.Finish()
					if err := chk.Err(); err != nil {
						t.Fatalf("offset %d: %v", offset, err)
					}
					if t.Failed() {
						return
					}
				}
			})
		}
	}
}

// TestReadMakesNoSharedWrites pins the read path's cost: an
// interference-free Search, hit or miss, writes nothing shared and loads
// each node's next pointer and key once, plus the version word at the
// start, every ReadCheck hops and at the end — about (2+1/k) loads a hop.
func TestReadMakesNoSharedWrites(t *testing.T) {
	const size = 100
	for _, cc := range prim.All() {
		for _, key := range []uint64{500, 10*size + 5} { // a hit halfway, a miss past the end
			fx := newFixture(t, sched.Config{Processors: 2, Seed: 1},
				multilist.Config{Processors: 2, Procs: 2, CC: cc}, size+8, tens(size))
			var got bool
			pr := fx.sim.SpawnAt(0, 0, 1, "reader", func(e *sched.Env) { got = fx.list.Search(e, key) })
			if err := fx.sim.Run(); err != nil {
				t.Fatal(err)
			}
			if got != (key%10 == 0) {
				t.Errorf("%s: Search(%d) = %v", cc.Name(), key, got)
			}
			c := fx.sim.Mem().ProcOpCounts(pr.ID())
			if c.Stores+c.CAS+c.CAS2+c.CCAS != 0 {
				t.Errorf("%s: Search(%d) wrote shared memory: %+v", cc.Name(), key, c)
			}
			// First → … → the first node with key >= key; a version
			// check after every ReadCheck-th hop that walks on.
			hops := min((key+9)/10, size+1)
			if want := 2*hops + 2 + (hops-1)/multilist.ReadCheck; c.Loads != want {
				t.Errorf("%s: Search(%d) made %d loads over %d hops, want %d", cc.Name(), key, c.Loads, hops, want)
			}
		}
	}
}

// TestSearchBoundUnderInterference: with updaters on every other processor
// making the reads fail, a Search costs at most one failed walk plus the
// protocol's Θ(2PT): 2P interference-free Delete-absent operations, each a
// full scan through the same protocol.
func TestSearchBoundUnderInterference(t *testing.T) {
	const size = 60
	probe := uint64(10*size + 5) // absent, past the end: a full scan
	for _, nCPU := range []int{2, 4} {
		solo := func(op func(l *multilist.List, e *sched.Env)) int64 {
			fx := newFixture(t, sched.Config{Processors: nCPU, Seed: 1},
				multilist.Config{Processors: nCPU, Procs: nCPU}, size+8, tens(size))
			var cost int64
			fx.sim.SpawnAt(0, 0, 1, "solo", func(e *sched.Env) {
				start := e.Now()
				op(fx.list, e)
				cost = e.Now() - start
			})
			if err := fx.sim.Run(); err != nil {
				t.Fatal(err)
			}
			return cost
		}
		walk := solo(func(l *multilist.List, e *sched.Env) { l.Search(e, probe) })
		scan := solo(func(l *multilist.List, e *sched.Env) { l.Delete(e, probe) })

		fx := newFixture(t, sched.Config{Processors: nCPU, Seed: 3},
			multilist.Config{Processors: nCPU, Procs: nCPU}, size+8*nCPU, tens(size))
		chk := check.NewMultiListChecker(fx.list, fx.sim.Mem())
		var worst int64
		fx.sim.Spawn(sched.JobSpec{Name: "reader", CPU: 0, Prio: 1, Slot: 0, AfterSlices: -1, Body: func(e *sched.Env) {
			for i := 0; i < 20; i++ {
				start := e.Now()
				chk.BeginOp(0, check.ListSch, probe)
				chk.EndOp(0, fx.list.Search(e, probe))
				worst = max(worst, e.Now()-start)
			}
		}})
		for cpu := 1; cpu < nCPU; cpu++ {
			fx.sim.Spawn(sched.JobSpec{Name: fmt.Sprintf("upd%d", cpu), CPU: cpu, Prio: 1, Slot: cpu, AfterSlices: -1, Body: func(e *sched.Env) {
				for i := 0; i < 20; i++ {
					key := uint64(10 * (1 + (cpu*7+i*13)%size))
					chk.BeginOp(cpu, check.ListDel, key)
					chk.EndOp(cpu, fx.list.Delete(e, key))
					chk.BeginOp(cpu, check.ListIns, key)
					chk.EndOp(cpu, fx.list.Insert(e, key, key))
				}
			}})
		}
		if err := fx.sim.Run(); err != nil {
			t.Fatal(err)
		}
		chk.Finish()
		if err := chk.Err(); err != nil {
			t.Fatal(err)
		}
		bound := walk + int64(2*nCPU)*scan
		t.Logf("P=%d T=%d: walk %d, Delete-absent %d, worst Search %d, bound %d", nCPU, size, walk, scan, worst, bound)
		if worst <= walk {
			t.Errorf("P=%d: no Search was slowed by the updaters (worst %d, walk %d): the test exercises nothing", nCPU, worst, walk)
		}
		if worst > bound {
			t.Errorf("P=%d: worst Search %d exceeds one walk %d + 2P × Delete-absent %d = %d", nCPU, worst, walk, scan, bound)
		}
	}
}

// TestSearchSpan: a traced Search is one op span from invoke to response,
// whether the read answers it or the protocol does; a fallback carries one
// read-fallback note inside that span.
func TestSearchSpan(t *testing.T) {
	fx := newFixture(t, sched.Config{Processors: 1, Seed: 1, EnableTrace: true},
		multilist.Config{Processors: 1, Procs: 2}, 64, tens(10))
	fx.sim.Spawn(sched.JobSpec{Name: "reader", CPU: 0, Prio: 1, Slot: 0, AfterSlices: -1, Body: func(e *sched.Env) {
		fx.list.Search(e, 90) // preempted mid-walk by the mover: falls back
		fx.list.Search(e, 90) // uncontended: the read answers
	}})
	fx.sim.Spawn(sched.JobSpec{Name: "mover", CPU: 0, Prio: 9, Slot: 1, AfterSlices: 6, Body: func(e *sched.Env) {
		fx.list.Delete(e, 30)
		fx.list.Insert(e, 95, 95)
	}})
	if err := fx.sim.Run(); err != nil {
		t.Fatal(err)
	}
	var reads []tracex.Span
	for _, sp := range tracex.Build(fx.sim.Trace()).OpSpans() {
		if sp.Slot == 0 {
			reads = append(reads, sp)
		}
	}
	if len(reads) != 2 || reads[0].Open || reads[1].Open {
		t.Fatalf("reader op spans = %+v, want two closed spans", reads)
	}
	var fallbacks []trace.Event
	for _, ev := range fx.sim.Trace().Events() {
		if p, _ := ev.Arg("p"); ev.Key == "read-fallback" && p == 0 {
			fallbacks = append(fallbacks, ev)
		}
	}
	if len(fallbacks) != 1 {
		t.Fatalf("%d read-fallback notes, want 1", len(fallbacks))
	}
	if s := fallbacks[0].Seq; s < reads[0].StartSeq || s > reads[0].EndSeq {
		t.Errorf("read-fallback at seq %d lies outside the first Search's span [%d,%d]", s, reads[0].StartSeq, reads[0].EndSeq)
	}
	if reads[0].Announce == nil || reads[1].Announce != nil {
		t.Errorf("announce marks: fallback %v, read %v; want only the fallback to announce", reads[0].Announce, reads[1].Announce)
	}
}
