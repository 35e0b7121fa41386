package multiqueue_test

import (
	"fmt"
	"testing"
	"testing/quick"

	"repro/internal/arena"
	"repro/internal/check"
	"repro/internal/core/multiqueue"
	"repro/internal/explore"
	"repro/internal/helping"
	"repro/internal/prim"
	"repro/internal/sched"
)

type fixture struct {
	sim *sched.Sim
	ar  *arena.Arena
	q   *multiqueue.Queue
}

func newFixture(t testing.TB, scfg sched.Config, qcfg multiqueue.Config, nodes int) *fixture {
	t.Helper()
	if scfg.MemWords == 0 {
		scfg.MemWords = 1 << 16
	}
	s := sched.New(scfg)
	ar, err := arena.New(s.Mem(), nodes, qcfg.Procs)
	if err != nil {
		t.Fatal(err)
	}
	q, err := multiqueue.New(s.Mem(), ar, qcfg)
	if err != nil {
		t.Fatal(err)
	}
	ar.Freeze()
	return &fixture{sim: s, ar: ar, q: q}
}

func TestSequentialFIFO(t *testing.T) {
	fx := newFixture(t, sched.Config{Processors: 1, Seed: 1},
		multiqueue.Config{Processors: 1, Procs: 1}, 32)
	fx.sim.SpawnAt(0, 0, 1, "p", func(e *sched.Env) {
		for v := uint64(1); v <= 8; v++ {
			fx.q.Enqueue(e, v)
		}
		for v := uint64(1); v <= 8; v++ {
			got, ok := fx.q.Dequeue(e)
			if !ok || got != v {
				t.Errorf("Dequeue = (%d, %v), want (%d, true)", got, ok, v)
			}
		}
		if _, ok := fx.q.Dequeue(e); ok {
			t.Error("Dequeue on empty queue returned ok")
		}
	})
	if err := fx.sim.Run(); err != nil {
		t.Fatal(err)
	}
}

// TestStressAllVariants: cross-processor producers/consumers under all CCAS
// implementations and helping modes, validated by the FIFO checker.
func TestStressAllVariants(t *testing.T) {
	for _, cc := range prim.All() {
		for _, mode := range []helping.Mode{helping.Cyclic, helping.Priority} {
			cc, mode := cc, mode
			t.Run(fmt.Sprintf("%s_%s", cc.Name(), mode), func(t *testing.T) {
				f := func(seed int64) bool {
					runStress(t, seed, cc, mode)
					return true
				}
				if err := quick.Check(f, &quick.Config{MaxCount: 10}); err != nil {
					t.Fatal(err)
				}
			})
		}
	}
}

func runStress(t *testing.T, seed int64, cc prim.Impl, mode helping.Mode) {
	t.Helper()
	const (
		nCPU   = 3
		nProcs = 6
		nOps   = 8
	)
	fx := newFixture(t, sched.Config{Processors: nCPU, Seed: seed, MemWords: 1 << 17},
		multiqueue.Config{Processors: nCPU, Procs: nProcs, CC: cc, Mode: mode}, 256)
	chk := check.NewFIFOChecker(fx.q, fx.sim.Mem())
	rng := fx.sim.Rand()
	for p := 0; p < nProcs; p++ {
		p := p
		fx.sim.Spawn(sched.JobSpec{
			Name: "", CPU: p % nCPU, Prio: sched.Priority(rng.Intn(6)), Slot: p,
			At: rng.Int63n(400), AfterSlices: -1,
			Body: func(e *sched.Env) {
				for op := 0; op < nOps; op++ {
					if e.Rand().Intn(2) == 0 {
						val := uint64(1000*p + op + 1) // unique per op
						chk.BeginEnq(p, val)
						fx.q.Enqueue(e, val)
						chk.EndEnq(p)
					} else {
						chk.BeginDeq(p)
						v, ok := fx.q.Dequeue(e)
						chk.EndDeq(p, v, ok)
					}
				}
			},
		})
	}
	if err := fx.sim.Run(); err != nil {
		t.Fatalf("seed %d (%s/%v): %v", seed, cc.Name(), mode, err)
	}
	chk.Finish()
	if err := chk.Err(); err != nil {
		t.Fatalf("seed %d (%s/%v): %v", seed, cc.Name(), mode, err)
	}
	// Per-producer FIFO: each producer's values leave in enqueue order.
	lastSeen := map[int]int{}
	for _, v := range chk.PopOrder() {
		p := int(v / 1000)
		op := int(v % 1000)
		if op <= lastSeen[p] {
			t.Fatalf("seed %d: producer %d's values dequeued out of order (op %d after %d)", seed, p, op, lastSeen[p])
		}
		lastSeen[p] = op
	}
}

// TestNodeConservation under contention.
func TestNodeConservation(t *testing.T) {
	const nProcs = 4
	fx := newFixture(t, sched.Config{Processors: 2, Seed: 9, MemWords: 1 << 17},
		multiqueue.Config{Processors: 2, Procs: nProcs}, 64)
	usable := 0
	for p := 0; p < nProcs; p++ {
		usable += fx.ar.FreeCount(p)
	}
	for p := 0; p < nProcs; p++ {
		p := p
		fx.sim.Spawn(sched.JobSpec{Name: "", CPU: p % 2, Prio: sched.Priority(p / 2), Slot: p, At: int64(p) * 7, AfterSlices: -1, Body: func(e *sched.Env) {
			for i := 0; i < 25; i++ {
				if e.Rand().Intn(2) == 0 {
					fx.q.Enqueue(e, uint64(100*p+i))
				} else {
					fx.q.Dequeue(e)
				}
			}
		}})
	}
	if err := fx.sim.Run(); err != nil {
		t.Fatal(err)
	}
	free := 0
	for p := 0; p < nProcs; p++ {
		free += fx.ar.FreeCount(p)
	}
	if free+len(fx.q.Snapshot()) != usable {
		t.Errorf("node conservation violated: %d free + %d queued != %d usable",
			free, len(fx.q.Snapshot()), usable)
	}
}

// TestPreemptedEnqueueHelped: a preempted enqueue completes via helping
// before the preemptor's dequeue observes the queue.
func TestPreemptedEnqueueHelped(t *testing.T) {
	fx := newFixture(t, sched.Config{Processors: 1, Seed: 1},
		multiqueue.Config{Processors: 1, Procs: 2}, 32)
	var got uint64
	var ok bool
	fx.sim.Spawn(sched.JobSpec{Name: "low", CPU: 0, Prio: 1, Slot: 0, AfterSlices: -1, Body: func(e *sched.Env) {
		fx.q.Enqueue(e, 42)
	}})
	fx.sim.Spawn(sched.JobSpec{Name: "high", CPU: 0, Prio: 9, Slot: 1, AfterSlices: 25, Body: func(e *sched.Env) {
		got, ok = fx.q.Dequeue(e)
	}})
	if err := fx.sim.Run(); err != nil {
		t.Fatal(err)
	}
	if !ok || got != 42 {
		t.Errorf("dequeue = (%d, %v), want (42, true): the preempted enqueue must be helped first", got, ok)
	}
}

func TestConfigValidation(t *testing.T) {
	s := sched.New(sched.Config{Processors: 1, Seed: 1, MemWords: 1 << 12})
	ar, err := arena.New(s.Mem(), 16, 1)
	if err != nil {
		t.Fatal(err)
	}
	if _, err := multiqueue.New(s.Mem(), ar, multiqueue.Config{Processors: 1, Procs: 0}); err == nil {
		t.Error("zero procs accepted")
	}
}

// TestTailWindowSweep sweeps the release points of a same-CPU preemptor and
// a remote process across a victim's enqueue/dequeue pairs, under every
// CCAS implementation, and judges each schedule with the FIFO checker.
// The windows it pins are the tail word's: a preemption between the splice
// and the tail swing (a late helper must finish the swing) and a dequeue
// that empties the queue (it must swing tail back to first before Rv).
func TestTailWindowSweep(t *testing.T) {
	for _, cc := range prim.All() {
		cc := cc
		t.Run(cc.Name(), func(t *testing.T) {
			n, err := explore.Sweep(explore.Config{Adversaries: 2, Max: 60, Gap: 12},
				func(rel []int64) error {
					fx := newFixture(t, sched.Config{Processors: 2, Seed: 1},
						multiqueue.Config{Processors: 2, Procs: 3, CC: cc}, 48)
					chk := check.NewFIFOChecker(fx.q, fx.sim.Mem())
					enq := func(e *sched.Env, p int, val uint64) {
						chk.BeginEnq(p, val)
						fx.q.Enqueue(e, val)
						chk.EndEnq(p)
					}
					deq := func(e *sched.Env, p int) {
						chk.BeginDeq(p)
						v, ok := fx.q.Dequeue(e)
						chk.EndDeq(p, v, ok)
					}
					fx.sim.Spawn(sched.JobSpec{Name: "victim", CPU: 0, Prio: 1, Slot: 0, AfterSlices: -1, Body: func(e *sched.Env) {
						enq(e, 0, 100)
						deq(e, 0)
						enq(e, 0, 101)
						deq(e, 0)
					}})
					fx.sim.Spawn(sched.JobSpec{Name: "adv", CPU: 0, Prio: 5, Slot: 1, AfterSlices: rel[0], Body: func(e *sched.Env) {
						enq(e, 1, 200)
						deq(e, 1)
					}})
					fx.sim.Spawn(sched.JobSpec{Name: "remote", CPU: 1, Prio: 1, Slot: 2, AfterSlices: rel[1], Body: func(e *sched.Env) {
						enq(e, 2, 300)
						deq(e, 2)
						enq(e, 2, 301)
					}})
					if err := fx.sim.Run(); err != nil {
						return err
					}
					chk.Finish()
					return chk.Err()
				})
			if err != nil {
				t.Fatal(err)
			}
			t.Logf("explored %d tail-window schedules", n)
		})
	}
}

// TestEnqueueCostFlatInDepth: with the tail word, an enqueue costs the same
// at any queue depth. One process prefills depth d, then times 100
// enqueue/dequeue pairs; vt/op at depth 256 must stay within 2x of depth 2.
func TestEnqueueCostFlatInDepth(t *testing.T) {
	const pairs = 100
	cost := func(depth int) float64 {
		fx := newFixture(t, sched.Config{Processors: 1, Seed: 1},
			multiqueue.Config{Processors: 1, Procs: 1}, 2*(depth+64))
		var elapsed int64
		fx.sim.SpawnAt(0, 0, 1, "p", func(e *sched.Env) {
			for i := 0; i < depth; i++ {
				fx.q.Enqueue(e, uint64(i+1))
			}
			start := e.Now()
			for i := 0; i < pairs; i++ {
				fx.q.Enqueue(e, uint64(depth+i+1))
				fx.q.Dequeue(e)
			}
			elapsed = e.Now() - start
		})
		if err := fx.sim.Run(); err != nil {
			t.Fatal(err)
		}
		return float64(elapsed) / (2 * pairs)
	}
	shallow, deep := cost(2), cost(256)
	t.Logf("vt/op: depth 2 = %.1f, depth 256 = %.1f", shallow, deep)
	if deep > 2*shallow {
		t.Errorf("vt/op at depth 256 = %.1f, more than 2x depth 2's %.1f: enqueue cost grows with depth", deep, shallow)
	}
}
