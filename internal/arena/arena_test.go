package arena

import (
	"testing"
	"testing/quick"

	"repro/internal/prim"
	"repro/internal/sched"
	"repro/internal/shmem"
)

func newSim(t *testing.T, words int) *sched.Sim {
	t.Helper()
	return sched.New(sched.Config{Processors: 1, Seed: 1, MemWords: words})
}

func TestNewValidation(t *testing.T) {
	m := shmem.New(1024)
	if _, err := New(m, 2, 1); err == nil {
		t.Error("capacity 2 accepted, want error")
	}
	if _, err := New(m, 10, 0); err == nil {
		t.Error("0 slots accepted, want error")
	}
	if _, err := New(shmem.New(4), 100, 1); err == nil {
		t.Error("oversized arena accepted, want allocation error")
	}
}

func TestStaticAndFreeze(t *testing.T) {
	m := shmem.New(1024)
	a, err := New(m, 12, 2)
	if err != nil {
		t.Fatal(err)
	}
	first := a.Static()
	last := a.Static()
	if first == NIL || last == NIL || first == a.Sentinel() || last == a.Sentinel() {
		t.Fatalf("static refs collide with reserved nodes: %d, %d", first, last)
	}
	a.Freeze()
	// 12 nodes - nil - sentinel - 2 static = 8, split 4/4.
	if got := a.FreeCount(0); got != 4 {
		t.Errorf("slot 0 free count = %d, want 4", got)
	}
	if got := a.FreeCount(1); got != 4 {
		t.Errorf("slot 1 free count = %d, want 4", got)
	}
}

func TestAllocFreeCycle(t *testing.T) {
	s := newSim(t, 1024)
	a, err := New(s.Mem(), 10, 1)
	if err != nil {
		t.Fatal(err)
	}
	a.Freeze()
	total := a.FreeCount(0)
	s.SpawnAt(0, 0, 1, "t", func(e *sched.Env) {
		var got []Ref
		for {
			r, ok := a.Alloc(e, 0)
			if !ok {
				break
			}
			// Freshly allocated nodes are real and distinct.
			if r == NIL || r == a.Sentinel() {
				t.Errorf("allocated reserved ref %d", r)
			}
			got = append(got, r)
		}
		if len(got) != total {
			t.Errorf("allocated %d nodes, want %d", len(got), total)
		}
		seen := map[Ref]bool{}
		for _, r := range got {
			if seen[r] {
				t.Errorf("ref %d allocated twice", r)
			}
			seen[r] = true
			a.Free(e, 0, r)
		}
		// Everything is reusable after free.
		for range got {
			if _, ok := a.Alloc(e, 0); !ok {
				t.Error("arena lost capacity across free/alloc cycle")
			}
		}
	})
	if err := s.Run(); err != nil {
		t.Fatal(err)
	}
}

// TestFreeNodeNextNonNIL verifies the property the uniprocessor insert
// protocol depends on: a node on the free list never has a NIL next field.
func TestFreeNodeNextNonNIL(t *testing.T) {
	s := newSim(t, 1024)
	a, err := New(s.Mem(), 16, 2)
	if err != nil {
		t.Fatal(err)
	}
	a.Freeze()
	s.SpawnAt(0, 0, 1, "t", func(e *sched.Env) {
		r, ok := a.Alloc(e, 0)
		if !ok {
			t.Fatal("alloc failed")
		}
		e.Store(a.NextAddr(r), 0) // simulate Insert line 2: next := NIL
		a.Free(e, 0, r)
		if e.Load(a.NextAddr(r)) == 0 {
			t.Error("freed node has NIL next; free list must use sentinels")
		}
	})
	if err := s.Run(); err != nil {
		t.Fatal(err)
	}
}

// TestSlotsAreIndependent: freeing into one slot does not make the node
// available to another slot.
func TestSlotsAreIndependent(t *testing.T) {
	s := newSim(t, 1024)
	a, err := New(s.Mem(), 8, 2) // 6 usable, 3 per slot
	if err != nil {
		t.Fatal(err)
	}
	a.Freeze()
	s.SpawnAt(0, 0, 1, "t", func(e *sched.Env) {
		for i := 0; i < 3; i++ {
			if _, ok := a.Alloc(e, 1); !ok {
				t.Fatal("slot 1 exhausted early")
			}
		}
		if _, ok := a.Alloc(e, 1); ok {
			t.Error("slot 1 allocated beyond its pool")
		}
		if _, ok := a.Alloc(e, 0); !ok {
			t.Error("slot 0 affected by slot 1 exhaustion")
		}
	})
	if err := s.Run(); err != nil {
		t.Fatal(err)
	}
}

func TestFreeInvalidPanics(t *testing.T) {
	s := newSim(t, 1024)
	a, err := New(s.Mem(), 8, 1)
	if err != nil {
		t.Fatal(err)
	}
	a.Freeze()
	s.SpawnAt(0, 0, 1, "t", func(e *sched.Env) {
		a.Free(e, 0, NIL)
	})
	if err := s.Run(); err == nil {
		t.Fatal("Free(NIL) did not fail the run")
	}
}

func TestNilNodeIsGuard(t *testing.T) {
	m := shmem.New(1024)
	a, err := New(m, 8, 1)
	if err != nil {
		t.Fatal(err)
	}
	if got := m.Peek(a.KeyAddr(NIL)); got != ^uint64(0) {
		t.Errorf("nil-node key = %#x, want max", got)
	}
}

// TestTaggedNextImpl: with the Figure 8(b) representation, free-list links
// still round-trip through the tag bits.
func TestTaggedNextImpl(t *testing.T) {
	s := newSim(t, 1024)
	a, err := New(s.Mem(), 10, 1)
	if err != nil {
		t.Fatal(err)
	}
	a.SetNextImpl(prim.Tagged())
	a.Freeze()
	s.SpawnAt(0, 0, 1, "t", func(e *sched.Env) {
		var refs []Ref
		for {
			r, ok := a.Alloc(e, 0)
			if !ok {
				break
			}
			refs = append(refs, r)
		}
		if len(refs) == 0 {
			t.Fatal("no nodes allocated")
		}
		for _, r := range refs {
			a.Free(e, 0, r)
		}
		if got := a.FreeCount(0); got != len(refs) {
			t.Errorf("free count after cycle = %d, want %d", got, len(refs))
		}
	})
	if err := s.Run(); err != nil {
		t.Fatal(err)
	}
}

// TestPropertyAllocNeverDuplicates: under arbitrary interleaved alloc/free
// by one slot, live refs are always distinct and capacity is conserved.
func TestPropertyAllocNeverDuplicates(t *testing.T) {
	f := func(seed int64) bool {
		s := sched.New(sched.Config{Processors: 1, Seed: seed, MemWords: 4096})
		a, err := New(s.Mem(), 20, 1)
		if err != nil {
			return false
		}
		a.Freeze()
		ok := true
		s.SpawnAt(0, 0, 1, "t", func(e *sched.Env) {
			live := map[Ref]bool{}
			var order []Ref
			for i := 0; i < 200; i++ {
				if e.Rand().Intn(2) == 0 {
					r, allocOK := a.Alloc(e, 0)
					if !allocOK {
						continue
					}
					if live[r] {
						ok = false
						return
					}
					live[r] = true
					order = append(order, r)
				} else if len(order) > 0 {
					r := order[len(order)-1]
					order = order[:len(order)-1]
					delete(live, r)
					a.Free(e, 0, r)
				}
			}
			if len(live)+a.FreeCount(0) != 18 { // 20 - nil - sentinel
				ok = false
			}
		})
		if err := s.Run(); err != nil {
			return false
		}
		return ok
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 30}); err != nil {
		t.Fatal(err)
	}
}
