package helping_test

import (
	"testing"
	"testing/quick"

	"repro/internal/helping"
	"repro/internal/prim"
	"repro/internal/sched"
	"repro/internal/shmem"
)

func TestVersionPackRoundTrip(t *testing.T) {
	f := func(cnt uint64, target uint8, needhelp bool) bool {
		v := helping.Version{
			Cnt:      cnt & ((1 << 46) - 1),
			Target:   int(target),
			Needhelp: needhelp,
		}
		return helping.UnpackVersion(helping.PackVersion(v)) == v
	}
	if err := quick.Check(f, nil); err != nil {
		t.Fatal(err)
	}
}

func TestModeString(t *testing.T) {
	if helping.Cyclic.String() != "cyclic" || helping.Priority.String() != "priority" {
		t.Error("mode names wrong")
	}
	if helping.Mode(99).String() != "mode(99)" {
		t.Error("unknown mode formatting wrong")
	}
}

// counterObject is a minimal helping-engine client: a one-word MWCAS-style
// compare-and-add. Each operation fixes (old, new) in its Par record before
// announcing — the paper's discipline that makes helpers idempotent: every
// data CCAS writes values fixed per operation, never freshly re-read ones.
type counterObject struct {
	eng     *helping.Engine
	cc      prim.Impl
	counter shmem.Addr
	par     shmem.Addr // (old, new) per slot, N+1 rows
}

func newCounterObject(t *testing.T, m *shmem.Mem, p, n int, mode helping.Mode) *counterObject {
	t.Helper()
	o := &counterObject{cc: prim.Native{}}
	o.counter = m.MustAlloc("counter", 1)
	o.par = m.MustAlloc("cpar", 2*(n+1))
	eng, err := helping.New(m, helping.Config{
		Processors: p,
		Procs:      n,
		Mode:       mode,
		CC:         o.cc,
		Done:       func(rv uint64) bool { return rv >= 2 },
		Help: func(e shmem.Ctx, ver helping.Version) {
			vw := helping.PackVersion(ver)
			pid := o.eng.AnnPid(e, ver.Target)
			if o.cc.Read(e, o.eng.RvAddr(pid)) >= 2 {
				return
			}
			oldv := e.Load(o.par + shmem.Addr(2*pid))
			newv := e.Load(o.par + shmem.Addr(2*pid+1))
			if o.cc.Read(e, o.counter) != oldv {
				// Figure 6 line 21: on a failed invalidation the
				// helper must FALL THROUGH to the swap phase, not
				// return — Rv may already be 1 (compare validated,
				// swap half-done by a stalled helper), in which
				// case this helper finishes the swap and sets
				// Rv=2. Returning here deadlocks the operation
				// (the soak test caught exactly that).
				if o.cc.Exec(e, o.eng.VAddr(), vw, o.eng.RvAddr(pid), 0, 3) {
					return
				}
			}
			o.cc.Exec(e, o.eng.VAddr(), vw, o.eng.RvAddr(pid), 0, 1)
			if e.Load(o.eng.VAddr()) != vw {
				return
			}
			if o.cc.Read(e, o.eng.RvAddr(pid)) >= 2 {
				return
			}
			o.cc.Exec(e, o.eng.VAddr(), vw, o.counter, oldv, newv)
			o.cc.Exec(e, o.eng.VAddr(), vw, o.eng.RvAddr(pid), 1, 2)
		},
	}, 2)
	if err != nil {
		t.Fatal(err)
	}
	o.eng = eng
	return o
}

// Add retries the compare-and-add until it commits (the standard
// read-compute-MWCAS usage pattern).
func (o *counterObject) Add(e shmem.Ctx, v uint64) {
	p := e.Slot()
	for {
		oldv := o.cc.Read(e, o.counter)
		e.Store(o.par+shmem.Addr(2*p), oldv)
		e.Store(o.par+shmem.Addr(2*p+1), oldv+v)
		o.cc.Write(e, o.eng.RvAddr(p), 0)
		o.eng.DoOp(e)
		if o.cc.Read(e, o.eng.RvAddr(p)) == 2 {
			return
		}
	}
}

// TestEngineDrivesOperations: concurrent adds across processors all land
// exactly once, under both helping modes.
func TestEngineDrivesOperations(t *testing.T) {
	for _, mode := range []helping.Mode{helping.Cyclic, helping.Priority} {
		mode := mode
		t.Run(mode.String(), func(t *testing.T) {
			f := func(seed int64) bool {
				const nCPU, nProc, ops = 3, 6, 5
				s := sched.New(sched.Config{Processors: nCPU, Seed: seed, MemWords: 1 << 12})
				o := newCounterObject(t, s.Mem(), nCPU, nProc, mode)
				want := uint64(0)
				rng := s.Rand()
				for p := 0; p < nProc; p++ {
					p := p
					s.Spawn(sched.JobSpec{
						Name: "", CPU: p % nCPU, Prio: sched.Priority(rng.Intn(4)), Slot: p,
						At: rng.Int63n(150), AfterSlices: -1,
						Body: func(e *sched.Env) {
							for i := 0; i < ops; i++ {
								o.Add(e, uint64(p+1))
							}
						},
					})
					want += uint64(p+1) * ops
				}
				if err := s.Run(); err != nil {
					t.Fatalf("seed %d: %v", seed, err)
				}
				if got := s.Mem().Peek(o.counter); got != want {
					t.Fatalf("seed %d (%v): counter = %d, want %d (lost or doubled adds)", seed, mode, got, want)
				}
				return true
			}
			if err := quick.Check(f, &quick.Config{MaxCount: 20}); err != nil {
				t.Fatal(err)
			}
		})
	}
}

// TestPreemptedOperationIsHelped: a low-priority add preempted mid-operation
// is completed by the preemptor before the preemptor's own add.
func TestPreemptedOperationIsHelped(t *testing.T) {
	s := sched.New(sched.Config{Processors: 1, Seed: 1, MemWords: 1 << 12, EnableTrace: true})
	o := newCounterObject(t, s.Mem(), 1, 2, helping.Cyclic)
	s.Spawn(sched.JobSpec{Name: "low", CPU: 0, Prio: 1, Slot: 0, AfterSlices: -1, Body: func(e *sched.Env) {
		o.Add(e, 10)
	}})
	s.Spawn(sched.JobSpec{Name: "high", CPU: 0, Prio: 9, Slot: 1, AfterSlices: 9, Body: func(e *sched.Env) {
		o.Add(e, 100)
	}})
	if err := s.Run(); err != nil {
		t.Fatal(err)
	}
	if got := s.Mem().Peek(o.counter); got != 110 {
		t.Fatalf("counter = %d, want 110", got)
	}
}

// TestValidation covers the engine's configuration errors.
func TestValidation(t *testing.T) {
	m := shmem.New(64)
	base := helping.Config{
		Processors: 1, Procs: 1, Mode: helping.Cyclic, CC: prim.Native{},
		Done: func(uint64) bool { return true },
		Help: func(shmem.Ctx, helping.Version) {},
	}
	if _, err := helping.New(m, base, 2); err != nil {
		t.Errorf("nil OnAnnounce rejected: %v", err)
	}
	bad := base
	bad.Processors = 0
	if _, err := helping.New(m, bad, 2); err == nil {
		t.Error("zero processors accepted")
	}
	bad = base
	bad.Procs = 0
	if _, err := helping.New(m, bad, 2); err == nil {
		t.Error("zero procs accepted")
	}
	bad = base
	bad.Help = nil
	if _, err := helping.New(m, bad, 2); err == nil {
		t.Error("nil Help accepted")
	}
	bad = base
	bad.Mode = helping.Mode(7)
	if _, err := helping.New(m, bad, 2); err == nil {
		t.Error("invalid mode accepted")
	}
}
