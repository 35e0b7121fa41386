package multilist_test

import (
	"fmt"
	"testing"
	"testing/quick"

	"repro/internal/arena"
	"repro/internal/check"
	"repro/internal/core/multilist"
	"repro/internal/helping"
	"repro/internal/prim"
	"repro/internal/sched"
)

type fixture struct {
	sim  *sched.Sim
	ar   *arena.Arena
	list *multilist.List
}

func newFixture(t testing.TB, scfg sched.Config, lcfg multilist.Config, nodes int, seed []uint64) *fixture {
	t.Helper()
	if scfg.MemWords == 0 {
		scfg.MemWords = 1 << 17
	}
	s := sched.New(scfg)
	ar, err := arena.New(s.Mem(), nodes, lcfg.Procs)
	if err != nil {
		t.Fatal(err)
	}
	l, err := multilist.New(s.Mem(), ar, lcfg)
	if err != nil {
		t.Fatal(err)
	}
	if len(seed) > 0 {
		if err := l.SeedAscending(seed); err != nil {
			t.Fatal(err)
		}
	}
	ar.Freeze()
	return &fixture{sim: s, ar: ar, list: l}
}

func TestSequentialSemantics(t *testing.T) {
	for _, cc := range prim.All() {
		cc := cc
		t.Run(cc.Name(), func(t *testing.T) {
			fx := newFixture(t, sched.Config{Processors: 1, Seed: 1},
				multilist.Config{Processors: 1, Procs: 1, CC: cc}, 32, nil)
			fx.sim.SpawnAt(0, 0, 1, "p", func(e *sched.Env) {
				l := fx.list
				if !l.Insert(e, 10, 100) || !l.Insert(e, 5, 50) || !l.Insert(e, 15, 150) {
					t.Error("inserts failed")
				}
				if l.Insert(e, 10, 101) {
					t.Error("duplicate insert succeeded")
				}
				if !l.Search(e, 5) || l.Search(e, 7) {
					t.Error("search wrong")
				}
				if !l.Delete(e, 10) || l.Delete(e, 10) {
					t.Error("delete wrong")
				}
			})
			if err := fx.sim.Run(); err != nil {
				t.Fatal(err)
			}
			got := fx.list.Snapshot()
			if len(got) != 2 || got[0] != 5 || got[1] != 15 {
				t.Errorf("final list = %v, want [5 15]", got)
			}
		})
	}
}

func TestSeededList(t *testing.T) {
	fx := newFixture(t, sched.Config{Processors: 2, Seed: 1},
		multilist.Config{Processors: 2, Procs: 2}, 64, []uint64{10, 20, 30, 40})
	fx.sim.SpawnAt(0, 0, 1, "p", func(e *sched.Env) {
		if !fx.list.Search(e, 30) {
			t.Error("Search(30) failed on seeded list")
		}
		if !fx.list.Delete(e, 20) {
			t.Error("Delete(20) failed")
		}
		if !fx.list.Insert(e, 25, 0) {
			t.Error("Insert(25) failed")
		}
	})
	if err := fx.sim.Run(); err != nil {
		t.Fatal(err)
	}
	got := fx.list.Snapshot()
	want := []uint64{10, 25, 30, 40}
	if len(got) != len(want) {
		t.Fatalf("list = %v, want %v", got, want)
	}
	for i := range want {
		if got[i] != want[i] {
			t.Fatalf("list = %v, want %v", got, want)
		}
	}
}

// TestStressAllVariants: the randomized cross-processor workload with the
// event-claiming checker, for every CCAS implementation, both helping modes
// and both Findpos strides.
func TestStressAllVariants(t *testing.T) {
	type variant struct {
		cc     prim.Impl
		mode   helping.Mode
		stride int
	}
	var variants []variant
	for _, cc := range prim.All() {
		variants = append(variants,
			variant{cc, helping.Cyclic, 1},
			variant{cc, helping.Priority, 1})
	}
	variants = append(variants,
		variant{prim.Native{}, helping.Cyclic, 10},
		variant{prim.Tagged{}, helping.Cyclic, 100})
	for _, v := range variants {
		v := v
		t.Run(fmt.Sprintf("%s_%s_stride%d", v.cc.Name(), v.mode, v.stride), func(t *testing.T) {
			f := func(seed int64) bool {
				runStress(t, seed, v.cc, v.mode, v.stride)
				return true
			}
			if err := quick.Check(f, &quick.Config{MaxCount: 10}); err != nil {
				t.Fatal(err)
			}
		})
	}
}

func runStress(t *testing.T, seed int64, cc prim.Impl, mode helping.Mode, stride int) {
	t.Helper()
	const (
		nCPU   = 3
		nProcs = 6
		nOps   = 8
	)
	fx := newFixture(t, sched.Config{Processors: nCPU, Seed: seed, MemWords: 1 << 17},
		multilist.Config{Processors: nCPU, Procs: nProcs, CC: cc, Mode: mode, Stride: stride},
		256, []uint64{2, 4, 6, 8})
	chk := check.NewMultiListChecker(fx.list, fx.sim.Mem())
	rng := fx.sim.Rand()
	for p := 0; p < nProcs; p++ {
		p := p
		fx.sim.Spawn(sched.JobSpec{
			Name: "", CPU: p % nCPU, Prio: sched.Priority(rng.Intn(6)), Slot: p,
			At: rng.Int63n(500), AfterSlices: -1,
			Body: func(e *sched.Env) {
				for op := 0; op < nOps; op++ {
					key := uint64(1 + e.Rand().Intn(10))
					var ok bool
					switch e.Rand().Intn(3) {
					case 0:
						chk.BeginOp(p, check.ListIns, key)
						ok = fx.list.Insert(e, key, key)
					case 1:
						chk.BeginOp(p, check.ListDel, key)
						ok = fx.list.Delete(e, key)
					default:
						chk.BeginOp(p, check.ListSch, key)
						ok = fx.list.Search(e, key)
					}
					chk.EndOp(p, ok)
				}
			},
		})
	}
	if err := fx.sim.Run(); err != nil {
		t.Fatalf("seed %d (%s/%v/stride %d): %v", seed, cc.Name(), mode, stride, err)
	}
	chk.Finish()
	if err := chk.Err(); err != nil {
		t.Fatalf("seed %d (%s/%v/stride %d): %v", seed, cc.Name(), mode, stride, err)
	}
	// The final list must be a sorted duplicate-free subset of the key
	// space.
	snap := fx.list.Snapshot()
	for i := 1; i < len(snap); i++ {
		if snap[i-1] >= snap[i] {
			t.Fatalf("seed %d: final list unsorted or duplicated: %v", seed, snap)
		}
	}
}

// TestNoLeaksUnderContention: arena capacity is conserved across a contended
// run (every node is in the list or on some free list afterwards).
func TestNoLeaksUnderContention(t *testing.T) {
	const nProcs = 4
	fx := newFixture(t, sched.Config{Processors: 2, Seed: 9, MemWords: 1 << 17},
		multilist.Config{Processors: 2, Procs: nProcs}, 64, nil)
	usable := 0
	for p := 0; p < nProcs; p++ {
		usable += fx.ar.FreeCount(p)
	}
	for p := 0; p < nProcs; p++ {
		p := p
		fx.sim.Spawn(sched.JobSpec{Name: "", CPU: p % 2, Prio: sched.Priority(p / 2), Slot: p, At: int64(p) * 7, AfterSlices: -1, Body: func(e *sched.Env) {
			for i := 0; i < 25; i++ {
				key := uint64(1 + e.Rand().Intn(6))
				if e.Rand().Intn(2) == 0 {
					fx.list.Insert(e, key, 0)
				} else {
					fx.list.Delete(e, key)
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
	if free+len(fx.list.Snapshot()) != usable {
		t.Errorf("node conservation violated: %d free + %d listed != %d usable",
			free, len(fx.list.Snapshot()), usable)
	}
}

// TestTheta2PT reproduces the Figure 1 shape for the multiprocessor list:
// worst-case operation time grows linearly in T (list size) and in P.
func TestTheta2PT(t *testing.T) {
	cost := func(nCPU, listSize int) int64 {
		keys := make([]uint64, listSize)
		for i := range keys {
			keys[i] = uint64(10 * (i + 1))
		}
		fx := newFixture(t, sched.Config{Processors: nCPU, Seed: 7, MemWords: 1 << 20},
			multilist.Config{Processors: nCPU, Procs: nCPU}, listSize+16, keys)
		worst := make([]int64, nCPU)
		for cpu := 0; cpu < nCPU; cpu++ {
			cpu := cpu
			fx.sim.Spawn(sched.JobSpec{Name: "", CPU: cpu, Prio: 1, Slot: cpu, At: 0, AfterSlices: -1, Body: func(e *sched.Env) {
				start := e.Now()
				fx.list.Delete(e, uint64(10*listSize+5)) // full scan, key absent
				worst[cpu] = e.Now() - start
			}})
		}
		if err := fx.sim.Run(); err != nil {
			t.Fatal(err)
		}
		var max int64
		for _, w := range worst {
			if w > max {
				max = w
			}
		}
		return max
	}
	// Linear in T at fixed P.
	c100, c200, c400 := cost(4, 100), cost(4, 200), cost(4, 400)
	if r := float64(c400-c200) / float64(c200-c100); r < 1.2 || r > 3.2 {
		t.Errorf("T-scaling not linear: %d, %d, %d (difference ratio %.2f)", c100, c200, c400, r)
	}
	// Increasing in P at fixed T.
	p2, p4, p8 := cost(2, 100), cost(4, 100), cost(8, 100)
	if !(p2 < p4 && p4 < p8) {
		t.Errorf("P-scaling not increasing: P=2:%d P=4:%d P=8:%d", p2, p4, p8)
	}
}

// TestPriorityHelpingUrgency: with priority helping, a high-priority
// operation is helped ahead of earlier-announced low-priority operations on
// other processors ("at most two other concurrent operations can be
// completed before it").
func TestPriorityHelpingUrgency(t *testing.T) {
	const nCPU = 4
	keys := make([]uint64, 300)
	for i := range keys {
		keys[i] = uint64(10 * (i + 1))
	}
	run := func(mode helping.Mode) int {
		fx := newFixture(t, sched.Config{Processors: nCPU, Seed: 5, MemWords: 1 << 20},
			multilist.Config{Processors: nCPU, Procs: nCPU, Mode: mode}, 340, keys)
		// Low-priority scanners on cpus 1..3 start first; a
		// high-priority op on cpu 0 starts later. Count how many
		// low-priority ops complete before the high one.
		var order []int
		for cpu := 1; cpu < nCPU; cpu++ {
			cpu := cpu
			fx.sim.Spawn(sched.JobSpec{Name: "", CPU: cpu, Prio: 1, Slot: cpu, At: 0, AfterSlices: -1, Body: func(e *sched.Env) {
				for i := 0; i < 3; i++ {
					fx.list.Delete(e, 3005)
					order = append(order, cpu)
				}
			}})
		}
		fx.sim.Spawn(sched.JobSpec{Name: "hi", CPU: 0, Prio: 9, Slot: 0, At: 900, AfterSlices: -1, Body: func(e *sched.Env) {
			fx.list.Delete(e, 3005)
			order = append(order, 0)
		}})
		if err := fx.sim.Run(); err != nil {
			t.Fatal(err)
		}
		before := 0
		for _, c := range order {
			if c == 0 {
				break
			}
			before++
		}
		return before
	}
	cyc := run(helping.Cyclic)
	pri := run(helping.Priority)
	if pri > cyc {
		t.Errorf("priority helping let %d low-priority ops finish first, cyclic %d — priority should not be worse", pri, cyc)
	}
}
