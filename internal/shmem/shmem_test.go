package shmem

import (
	"errors"
	"math/rand"
	"testing"
	"testing/quick"

	"repro/internal/metrics"
)

func TestAllocSequential(t *testing.T) {
	m := New(16)
	a, err := m.Alloc("a", 3)
	if err != nil {
		t.Fatalf("Alloc a: %v", err)
	}
	b, err := m.Alloc("b", 4)
	if err != nil {
		t.Fatalf("Alloc b: %v", err)
	}
	if a != 1 {
		t.Errorf("first allocation at %d, want 1 (word 0 reserved)", a)
	}
	if b != a+3 {
		t.Errorf("second allocation at %d, want %d", b, a+3)
	}
	if got := m.Allocated(); got != 8 {
		t.Errorf("Allocated() = %d, want 8", got)
	}
}

func TestAllocExhaustion(t *testing.T) {
	m := New(4)
	if _, err := m.Alloc("big", 10); !errors.Is(err, ErrOutOfMemory) {
		t.Fatalf("Alloc beyond capacity: err = %v, want ErrOutOfMemory", err)
	}
	if _, err := m.Alloc("neg", -1); err == nil {
		t.Fatal("Alloc(-1) succeeded, want error")
	}
}

// TestAllocRowsDense: the simulator's rows are packed (stride == width),
// so AllocRows hands out exactly the addresses and names of one
// Alloc(name, rows*width), and Rows indexes them.
func TestAllocRowsDense(t *testing.T) {
	m, dense := New(64), New(64)
	dense.MustAlloc("V", 1)
	m.MustAlloc("V", 1)
	par, err := NewRows(m, "Par", 3, 3)
	if err != nil {
		t.Fatal(err)
	}
	want := dense.MustAlloc("Par", 9)
	if par.Base != want || par.Stride != 3 || m.Allocated() != dense.Allocated() {
		t.Fatalf("rows = %+v, Allocated %d; want base %d stride 3, Allocated %d", par, m.Allocated(), want, dense.Allocated())
	}
	if got := par.Row(2) + 1; got != want+7 || m.Name(got) != "Par+7" {
		t.Errorf("Par[2][1] at %d (%q), want %d (Par+7)", got, m.Name(got), want+7)
	}
	if _, _, err := m.AllocRows("big", 100, 1); !errors.Is(err, ErrOutOfMemory) {
		t.Errorf("AllocRows beyond capacity: err = %v, want ErrOutOfMemory", err)
	}
	if _, _, err := m.AllocRows("neg", -1, 1); err == nil {
		t.Error("AllocRows(-1 rows) succeeded, want error")
	}
}

func TestMustAllocPanics(t *testing.T) {
	m := New(2)
	defer func() {
		if recover() == nil {
			t.Fatal("MustAlloc beyond capacity did not panic")
		}
	}()
	m.MustAlloc("big", 100)
}

func TestLoadStore(t *testing.T) {
	m := New(8)
	a := m.MustAlloc("x", 1)
	m.Store(a, 42)
	if got := m.Load(a); got != 42 {
		t.Errorf("Load = %d, want 42", got)
	}
	if m.Steps() != 2 {
		t.Errorf("Steps = %d, want 2", m.Steps())
	}
}

func TestCAS(t *testing.T) {
	m := New(8)
	a := m.MustAlloc("x", 1)
	m.Store(a, 1)
	if !m.CAS(a, 1, 2) {
		t.Fatal("CAS(1->2) failed on matching value")
	}
	if m.CAS(a, 1, 3) {
		t.Fatal("CAS(1->3) succeeded on stale expected value")
	}
	if got := m.Peek(a); got != 2 {
		t.Errorf("value = %d, want 2", got)
	}
}

func TestCAS2(t *testing.T) {
	m := New(8)
	a := m.MustAlloc("a", 1)
	b := m.MustAlloc("b", 1)
	m.Store(a, 10)
	m.Store(b, 20)
	if m.CAS2(a, b, 10, 99, 11, 21) {
		t.Fatal("CAS2 succeeded with one mismatching word")
	}
	if m.Peek(a) != 10 || m.Peek(b) != 20 {
		t.Fatal("failed CAS2 modified memory")
	}
	if !m.CAS2(a, b, 10, 20, 11, 21) {
		t.Fatal("CAS2 failed with both words matching")
	}
	if m.Peek(a) != 11 || m.Peek(b) != 21 {
		t.Errorf("after CAS2: a=%d b=%d, want 11, 21", m.Peek(a), m.Peek(b))
	}
}

func TestCAS2AliasPanics(t *testing.T) {
	m := New(8)
	a := m.MustAlloc("a", 1)
	defer func() {
		if recover() == nil {
			t.Fatal("aliased CAS2 did not panic")
		}
	}()
	m.CAS2(a, a, 0, 0, 1, 1)
}

func TestCCASNative(t *testing.T) {
	m := New(8)
	v := m.MustAlloc("v", 1)
	x := m.MustAlloc("x", 1)
	m.Store(v, 7)
	m.Store(x, 100)

	if m.CCAS(v, 6, x, 100, 200) {
		t.Fatal("CCAS succeeded with wrong version")
	}
	if m.Peek(x) != 100 {
		t.Fatal("failed CCAS modified target")
	}
	if m.CCAS(v, 7, x, 99, 200) {
		t.Fatal("CCAS succeeded with wrong old value")
	}
	if !m.CCAS(v, 7, x, 100, 200) {
		t.Fatal("CCAS failed with matching version and old value")
	}
	if m.Peek(x) != 200 {
		t.Errorf("x = %d, want 200", m.Peek(x))
	}
	if m.Peek(v) != 7 {
		t.Errorf("CCAS modified the compare-only version word: v = %d", m.Peek(v))
	}
}

func TestObserverSeesWrites(t *testing.T) {
	m := New(8)
	a := m.MustAlloc("x", 1)
	var events []WriteEvent
	m.AddObserver(ObserverFunc(func(ev WriteEvent) { events = append(events, ev) }))

	m.SetCurrentProc(3)
	m.Store(a, 5)
	m.CAS(a, 5, 6)
	m.CAS(a, 5, 7) // fails: no event
	m.Load(a)      // loads are not reported

	if len(events) != 2 {
		t.Fatalf("observer saw %d events, want 2", len(events))
	}
	if events[0].Kind != OpStore || events[0].New != 5 || events[0].Proc != 3 {
		t.Errorf("event 0 = %+v", events[0])
	}
	if events[1].Kind != OpCAS || events[1].Old != 5 || events[1].New != 6 {
		t.Errorf("event 1 = %+v", events[1])
	}
	if events[1].Step <= events[0].Step {
		t.Errorf("steps not increasing: %d then %d", events[0].Step, events[1].Step)
	}
}

func TestName(t *testing.T) {
	m := New(32)
	a := m.MustAlloc("Status", 4)
	b := m.MustAlloc("Save", 8)
	cases := []struct {
		addr Addr
		want string
	}{
		{a, "Status"},
		{a + 2, "Status+2"},
		{b, "Save"},
		{b + 7, "Save+7"},
		{0, "word(0)"},
		{-5, "invalid(-5)"},
		{Addr(31), "word(31)"},
	}
	for _, c := range cases {
		if got := m.Name(c.addr); got != c.want {
			t.Errorf("Name(%d) = %q, want %q", int(c.addr), got, c.want)
		}
	}
}

func TestOutOfRangePanics(t *testing.T) {
	m := New(4)
	defer func() {
		if recover() == nil {
			t.Fatal("out-of-range Load did not panic")
		}
	}()
	m.Load(100)
}

// TestPropertyCASSemantics cross-checks CAS against a model map under random
// operation sequences.
func TestPropertyCASSemantics(t *testing.T) {
	f := func(seed int64) bool {
		rng := rand.New(rand.NewSource(seed))
		m := New(16)
		base := m.MustAlloc("w", 8)
		model := make([]uint64, 8)
		for i := 0; i < 500; i++ {
			a := base + Addr(rng.Intn(8))
			idx := int(a - base)
			switch rng.Intn(3) {
			case 0:
				v := uint64(rng.Intn(8))
				m.Store(a, v)
				model[idx] = v
			case 1:
				old := uint64(rng.Intn(8))
				v := uint64(rng.Intn(8))
				ok := m.CAS(a, old, v)
				if ok != (model[idx] == old) {
					return false
				}
				if ok {
					model[idx] = v
				}
			case 2:
				if m.Load(a) != model[idx] {
					return false
				}
			}
		}
		for i, want := range model {
			if m.Peek(base+Addr(i)) != want {
				return false
			}
		}
		return true
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 50}); err != nil {
		t.Fatal(err)
	}
}

func TestOpKindString(t *testing.T) {
	cases := map[OpKind]string{
		OpStore:    "store",
		OpCAS:      "cas",
		OpCAS2:     "cas2",
		OpCCAS:     "ccas",
		OpKind(99): "opkind(99)",
	}
	for k, want := range cases {
		if got := k.String(); got != want {
			t.Errorf("%d.String() = %q, want %q", int(k), got, want)
		}
	}
}

// TestOpCountAttribution: every primitive tallies under the process the
// scheduler declared current, failures are counted separately, setup code
// (curProc -1) goes to its own bucket, and Peek/Poke stay invisible.
func TestOpCountAttribution(t *testing.T) {
	m := New(16)
	a := m.MustAlloc("a", 1)
	v := m.MustAlloc("v", 1)

	m.Store(a, 1) // setup: no SetCurrentProc yet

	m.SetCurrentProc(0)
	m.Load(a)
	if !m.CAS(a, 1, 2) {
		t.Fatal("CAS(1,2) should succeed")
	}
	if m.CAS(a, 99, 3) {
		t.Fatal("CAS(99,3) should fail")
	}

	m.SetCurrentProc(2) // skip id 1: the tally must grow on demand
	m.Store(a, 5)
	if !m.CCAS(v, 0, a, 5, 6) {
		t.Fatal("CCAS should succeed")
	}
	if m.CCAS(v, 1, a, 6, 7) {
		t.Fatal("CCAS with stale version should fail")
	}
	if !m.CAS2(a, v, 6, 0, 8, 1) {
		t.Fatal("CAS2 should succeed")
	}
	if m.CAS2(a, v, 6, 0, 9, 2) {
		t.Fatal("CAS2 on stale values should fail")
	}
	m.Peek(a)    // no step, no tally
	m.Poke(a, 0) // no step, no tally
	m.SetCurrentProc(-1)
	m.Load(a) // back to setup attribution

	p0 := m.ProcOpCounts(0)
	if p0.Loads != 1 || p0.CAS != 2 || p0.CASFail != 1 || p0.Stores != 0 {
		t.Errorf("proc 0 tally wrong: %+v", p0)
	}
	if p1 := m.ProcOpCounts(1); p1 != (metrics.OpCounts{}) {
		t.Errorf("proc 1 never ran but has tally %+v", p1)
	}
	p2 := m.ProcOpCounts(2)
	if p2.Stores != 1 || p2.CCAS != 2 || p2.CCASFail != 1 || p2.CAS2 != 2 || p2.CAS2Fail != 1 {
		t.Errorf("proc 2 tally wrong: %+v", p2)
	}
	setup := m.SetupOpCounts()
	if setup.Stores != 1 || setup.Loads != 1 {
		t.Errorf("setup tally wrong: %+v", setup)
	}
	if out := m.ProcOpCounts(-3); out != (metrics.OpCounts{}) {
		t.Errorf("out-of-range proc has tally %+v", out)
	}

	total := m.TotalOpCounts()
	if total.Steps() != m.Steps() {
		t.Errorf("total steps %d != Mem.Steps %d", total.Steps(), m.Steps())
	}
	if total.Loads != 2 || total.Stores != 2 || total.Fails() != 3 {
		t.Errorf("total tally wrong: %+v", total)
	}
}
