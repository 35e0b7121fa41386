package registry

import (
	"testing"

	"repro/internal/native"
	"repro/internal/sched"
	"repro/internal/shmem"
)

// allocLog records every allocation a constructor makes, in order, and
// passes it on to the memory underneath. With dense set, AllocRows is
// replaced by the one Alloc(name, rows*width) every object made before
// rows existed: the old layout, for comparison.
type allocLog struct {
	shmem.Memory
	dense  bool
	allocs []allocRec
}

type allocRec struct {
	name                string
	base                shmem.Addr
	rows, width, stride int // stride 0: a plain Alloc of width words
}

func (m *allocLog) Alloc(name string, n int) (shmem.Addr, error) {
	a, err := m.Memory.Alloc(name, n)
	m.allocs = append(m.allocs, allocRec{name: name, base: a, rows: 1, width: n})
	return a, err
}

func (m *allocLog) MustAlloc(name string, n int) shmem.Addr {
	a, err := m.Alloc(name, n)
	if err != nil {
		panic(err)
	}
	return a
}

func (m *allocLog) AllocRows(name string, rows, width int) (shmem.Addr, int, error) {
	if m.dense {
		a, err := m.Alloc(name, rows*width)
		return a, width, err
	}
	a, stride, err := m.Memory.AllocRows(name, rows, width)
	m.allocs = append(m.allocs, allocRec{name: name, base: a, rows: rows, width: width, stride: stride})
	return a, stride, err
}

// loggedBackend is a Backend whose memory is an allocLog.
type loggedBackend struct {
	Backend
	mem *allocLog
}

func (b loggedBackend) Memory() shmem.Memory { return b.mem }

// layoutConfig is the two-slot configuration TestRowLayout builds every
// descriptor with: P = 2 for the multiprocessor family.
func layoutConfig(d *Descriptor) Config {
	cfg := d.StressConfig(2)
	cfg.Check = false
	if d.Family == FamilyMulti {
		cfg.Processors = 2
	}
	return cfg
}

// TestRowLayout pins the one layout rule for per-slot and per-processor
// rows on both backends, for every registered object:
//
//   - native (P = 2, N = 2): every row starts a 64-byte line and owns its
//     lines, so no other row or allocation shares one with it;
//   - simulator: stride == width, and every address and the allocated
//     total equal the dense layout of one Alloc per row block, so no
//     simulator address, name, golden or digest can move.
func TestRowLayout(t *testing.T) {
	for _, d := range All() {
		t.Run(d.Name, func(t *testing.T) {
			mem := native.NewMem(1 << 14)
			var w *native.World
			switch d.Family {
			case FamilyUni:
				w = native.NewWorld(mem, 1)
			case FamilyMulti:
				w = native.NewWorld(mem, 2)
			default:
				w = native.NewFreeWorld(mem)
			}
			log := &allocLog{Memory: mem}
			if _, err := BuildOn(loggedBackend{NativeBackend(w), log}, d.Name, layoutConfig(d)); err != nil {
				t.Fatal(err)
			}
			checkNativeRows(t, log.allocs)

			sim := func(dense bool) *allocLog {
				s := sched.New(sched.Config{Processors: 2, Seed: 1, MemWords: 1 << 14})
				log := &allocLog{Memory: s.Mem(), dense: dense}
				if _, err := BuildOn(loggedBackend{SimBackend(s), log}, d.Name, layoutConfig(d)); err != nil {
					t.Fatal(err)
				}
				return log
			}
			rows, dense := sim(false), sim(true)
			if len(rows.allocs) != len(dense.allocs) || rows.Allocated() != dense.Allocated() {
				t.Fatalf("simulator: %d allocations, %d words; dense layout %d, %d",
					len(rows.allocs), rows.Allocated(), len(dense.allocs), dense.Allocated())
			}
			for i, a := range rows.allocs {
				b := dense.allocs[i]
				if a.stride != 0 && a.stride != a.width {
					t.Errorf("simulator: %s rows have stride %d, want the width %d", a.name, a.stride, a.width)
				}
				if a.name != b.name || a.base != b.base || a.rows*a.width != b.width {
					t.Errorf("simulator allocation %d: %s at %d (%d words), dense layout %s at %d (%d words)",
						i, a.name, a.base, a.rows*a.width, b.name, b.base, b.width)
				}
			}
		})
	}
}

// checkNativeRows fails unless every row in allocs starts a cache line and
// every line holding a row's word holds no word of anything else.
func checkNativeRows(t *testing.T, allocs []allocRec) {
	t.Helper()
	const lineWords = 8
	type owner struct{ alloc, row int }
	lines := map[int][]owner{} // line -> owners of its words
	sawRows := false
	for i, a := range allocs {
		stride := a.stride
		if stride == 0 {
			stride = a.width
		} else {
			sawRows = true
			if a.base%lineWords != 0 || stride%lineWords != 0 || stride < a.width {
				t.Errorf("native: %s rows at %d with stride %d (width %d), want line starts", a.name, a.base, stride, a.width)
			}
		}
		for r := 0; r < a.rows; r++ {
			row := int(a.base) + r*stride
			for w := row; w < row+a.width; w++ {
				o := owner{i, r}
				if a.stride == 0 {
					o.row = -1 // a plain allocation is one owner
				}
				if l := lines[w/lineWords]; len(l) == 0 || l[len(l)-1] != o {
					lines[w/lineWords] = append(l, o)
				}
			}
		}
	}
	if !sawRows {
		t.Fatal("native: no AllocRows call; every registered object keeps per-slot rows")
	}
	for line, owners := range lines {
		for _, o := range owners {
			if o.row >= 0 && len(owners) > 1 {
				a := allocs[o.alloc]
				t.Errorf("native: %s[%d] shares line %d with %d other owner(s)", a.name, o.row, line, len(owners)-1)
			}
		}
	}
}

// TestNativeBuildAtMaxSlots: with every slot's rows padded to whole cache
// lines, RunNative's memory sizing still fits the two objects with the
// widest rows at native.MaxSlots processes. It builds only; no goroutine
// starts.
func TestNativeBuildAtMaxSlots(t *testing.T) {
	for _, name := range []string{"multimwcas", "multilist"} {
		d := Lookup0(name)
		h, _, _, err := d.buildNative(NativeRun{Procs: native.MaxSlots})
		if err != nil {
			t.Fatalf("%s at %d procs: %v", name, native.MaxSlots, err)
		}
		mem := h.World.Mem()
		t.Logf("%s: %d of %d words allocated", name, mem.Allocated(), mem.Capacity())
	}
}
