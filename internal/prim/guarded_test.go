package prim

import (
	"encoding/json"
	"fmt"
	"os"
	"path/filepath"
	"strconv"
	"strings"
	"testing"

	"repro/internal/native"
	"repro/internal/sched"
	"repro/internal/shmem"
)

// closureExec returns the reference form of a software construction's
// Exec: the Figure 8 window written as a closure run under Ctx.NoPreempt,
// the way Exec was built before Ctx.GuardedCAS existed. It is kept only to
// pin that GuardedCAS is observationally identical.
func closureExec(impl Impl) execFunc {
	return func(e shmem.Ctx, v shmem.Addr, ver uint64, x shmem.Addr, old, val uint64) bool {
		var raw, next uint64
		switch impl.kind {
		case kindTagged:
			checkLogical("Tagged", old, val)
			raw = e.Load(x)
			if raw&logicalMask != old {
				return false
			}
			next = (val & logicalMask) | (raw&^logicalMask + tagIncrement)
		case kindDelayed:
			if e.Load(x) != old {
				return false
			}
			raw, next = old, val
		default:
			panic("closureExec: " + impl.Name() + " has no software window")
		}
		ok := false
		e.NoPreempt(func() {
			if e.Load(v) != ver {
				return
			}
			ok = e.CAS(x, raw, next)
		})
		return ok
	}
}

// chainCorpus returns FuzzCCASChain's whole seed corpus: the in-code seeds
// plus every file under testdata/fuzz/FuzzCCASChain.
func chainCorpus(t *testing.T) [][]byte {
	t.Helper()
	corpus := append([][]byte(nil), chainSeeds...)
	files, err := filepath.Glob(filepath.Join("testdata", "fuzz", "FuzzCCASChain", "*"))
	if err != nil {
		t.Fatal(err)
	}
	for _, f := range files {
		raw, err := os.ReadFile(f)
		if err != nil {
			t.Fatal(err)
		}
		lines := strings.Split(strings.TrimSpace(string(raw)), "\n")
		arg := strings.TrimSuffix(strings.TrimPrefix(lines[len(lines)-1], "[]byte("), ")")
		s, err := strconv.Unquote(arg)
		if err != nil {
			t.Fatalf("%s: %v", f, err)
		}
		corpus = append(corpus, []byte(s))
	}
	if len(corpus) <= len(chainSeeds) {
		t.Fatal("FuzzCCASChain testdata corpus is missing")
	}
	return corpus
}

// chainFingerprint runs the chain cast traced and renders its full event
// log, its metrics.Report and the final shared word.
func chainFingerprint(t *testing.T, impl Impl, exec execFunc, data []byte, serial bool) string {
	t.Helper()
	sched.SetRunAhead(!serial)
	defer sched.SetRunAhead(true)
	s, x, wins := chainSim(impl, exec, data, sched.Config{EnableTrace: true})
	if err := s.Run(); err != nil {
		t.Fatalf("%s: Run: %v", impl.Name(), err)
	}
	var b strings.Builder
	fmt.Fprintf(&b, "x=%#x wins=%v\n", s.Mem().Peek(x), wins)
	for _, ev := range s.Trace().Events() {
		fmt.Fprintf(&b, "%d cpu%d p%d %v %s %s\n", ev.Time, ev.CPU, ev.Proc, ev.Kind, ev.Key, ev.Message())
	}
	rep, err := json.Marshal(s.Report("chain"))
	if err != nil {
		t.Fatal(err)
	}
	b.Write(rep)
	return b.String()
}

// TestGuardedCASMatchesClosure: on the simulator, Exec through GuardedCAS
// and the closure-under-NoPreempt reference produce byte-identical event
// logs and run reports for both software constructions, in run-ahead and
// serial mode, over the FuzzCCASChain seed corpus plus a sweep of the
// highest-priority process's release time — the sweep is what lands an
// arrival inside the window, so an unmasked window diverges.
func TestGuardedCASMatchesClosure(t *testing.T) {
	impls := []Impl{Tagged(), Delayed(2)}
	inputs := chainCorpus(t)
	for r := byte(0); r < 32; r++ {
		// Seven attempts each, low and middle released at 0 and 3, the
		// high-priority process at r, versions advanced every attempt.
		inputs = append(inputs, []byte{1, 5, 5, 5, 0, 3, r, 0, 0, 0})
	}
	for i, data := range inputs {
		for _, impl := range impls {
			for _, serial := range []bool{false, true} {
				got := chainFingerprint(t, impl, impl.Exec, data, serial)
				want := chainFingerprint(t, impl, closureExec(impl), data, serial)
				if got != want {
					t.Errorf("input %d %s serial=%v: GuardedCAS diverged from the closure form:\n--- closure ---\n%s\n--- guarded ---\n%s",
						i, impl.Name(), serial, want, got)
				}
			}
		}
	}
}

// execAllocs measures allocations per Exec call on ctx for the success path
// (matching version and old value), the in-window failure path (stale
// version) and the line-1 failure path (stale old value).
func execAllocs(impl Impl, e shmem.Ctx, v, x shmem.Addr) map[string]float64 {
	return map[string]float64{
		"success": testing.AllocsPerRun(200, func() {
			cur := impl.Read(e, x)
			if !impl.Exec(e, v, 0, x, cur, cur+1) {
				panic("CCAS with matching version and old value failed")
			}
		}),
		"stale-version": testing.AllocsPerRun(200, func() {
			cur := impl.Read(e, x)
			if impl.Exec(e, v, 1, x, cur, cur+1) {
				panic("CCAS with a stale version succeeded")
			}
		}),
		"stale-old": testing.AllocsPerRun(200, func() {
			cur := impl.Read(e, x)
			if impl.Exec(e, v, 0, x, cur+1, cur+2) {
				panic("CCAS with a stale old value succeeded")
			}
		}),
	}
}

// TestExecAllocFree pins the software CCAS allocation-free on both
// backends, on every path through Exec.
func TestExecAllocFree(t *testing.T) {
	if native.RaceEnabled {
		t.Skip("allocation counts are not meaningful under -race")
	}
	for _, impl := range []Impl{Tagged(), Delayed(2)} {
		t.Run(impl.Name()+"/native", func(t *testing.T) {
			m := native.NewMem(8)
			v := m.MustAlloc("V", 1)
			x := m.MustAlloc("X", 1)
			impl.InitWord(m, x, 0)
			p := native.NewWorld(m, 1).NewProc(0, 0, 1)
			p.Begin()
			defer p.End()
			for path, n := range execAllocs(impl, p, v, x) {
				if n != 0 {
					t.Errorf("%s path: %.1f allocs per Exec on native, want 0", path, n)
				}
			}
		})
		t.Run(impl.Name()+"/sim", func(t *testing.T) {
			s := sched.New(sched.Config{Processors: 1, Seed: 1, MemWords: 64})
			m := s.Mem()
			v := m.MustAlloc("V", 1)
			x := m.MustAlloc("X", 1)
			impl.InitWord(m, x, 0)
			var got map[string]float64
			s.SpawnAt(0, 0, 1, "t", func(e *sched.Env) { got = execAllocs(impl, e, v, x) })
			if err := s.Run(); err != nil {
				t.Fatal(err)
			}
			for path, n := range got {
				if n != 0 {
					t.Errorf("%s path: %.1f allocs per Exec on the simulator, want 0", path, n)
				}
			}
		})
	}
}

// stallCtx stalls its process inside the first GuardedCAS window it
// enters, the way a host can deschedule a goroutine there on native: after
// the version check passes and before the CAS, another process advances
// the version word and rewrites x through k protocol Writes, each back to
// the logical value x already holds.
type stallCtx struct {
	shmem.Ctx
	impl  Impl
	k     int
	stall bool
}

func (c *stallCtx) GuardedCAS(v shmem.Addr, ver uint64, x shmem.Addr, old, val uint64) bool {
	if !c.stall {
		return c.Ctx.GuardedCAS(v, ver, x, old, val)
	}
	c.stall = false
	if c.Load(v) != ver {
		return false
	}
	c.CAS(v, ver, ver+1)
	for i := 0; i < c.k; i++ {
		c.impl.Write(c.Ctx, x, c.impl.Read(c.Ctx, x))
	}
	return c.CAS(x, old, val)
}

// TestTaggedWrapInWindow: a Tagged CCAS whose window spans k same-value
// rewrites of its word must fail, since the version it checked is stale by
// the time its CAS lands. Only the counter field can tell, and it can only
// while k stays below 2^tagBits: 256 rewrites defeat an 8-bit counter,
// 2^16-1 is the most a 16-bit counter survives.
func TestTaggedWrapInWindow(t *testing.T) {
	for _, k := range []int{1, 255, 256, 1<<16 - 1} {
		m := native.NewMem(8)
		v := m.MustAlloc("V", 1)
		x := m.MustAlloc("X", 1)
		impl := Tagged()
		impl.InitWord(m, x, 10)
		p := native.NewWorld(m, 1).NewProc(0, 0, 1)
		p.Begin()
		ctx := &stallCtx{Ctx: p, impl: impl, k: k, stall: true}
		ok := impl.Exec(ctx, v, 0, x, 10, 77)
		got := impl.Read(p, x)
		p.End()
		if ok || got != 10 {
			t.Errorf("k=%d: stale CCAS succeeded=%v, X = %d (want a failure leaving 10)", k, ok, got)
		}
	}
}
