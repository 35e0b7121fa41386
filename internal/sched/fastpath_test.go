package sched

// Tests for the scheduling path, the Sim reuse lifecycle and the hot-path
// allocation claims. Run's direct hand-off (Env.handOff) must take every
// decision the slice-by-slice scheduler loop takes: the differential below
// requires byte-identical runs — traces, clocks, per-process slice counts,
// watchdog failures — across scenarios chosen to exercise slice releases,
// time releases, multiprocessor clock crossings, the watchdog, notes, a
// NoPreempt window lapsing under waiting arrivals, and zero-cost yields. A
// Reset or pooled Sim must reproduce a fresh Sim's run the same way, and
// the alloc tests pin the zero-alloc claims of the trace and slice hot
// paths.

import (
	"fmt"
	"strings"
	"testing"

	"repro/internal/trace"
)

// fingerprint renders everything observable about a finished run: the
// outcome, global and per-process slice counts, final CPU clocks, and the
// full trace (kinds, times, processes, keys, rendered messages).
func fingerprint(s *Sim, runErr error) string {
	var b strings.Builder
	fmt.Fprintf(&b, "err=%v slices=%d elapsed=%d\n", runErr, s.Slices(), s.Elapsed())
	for i := 0; i < s.Processors(); i++ {
		fmt.Fprintf(&b, "cpu%d clock=%d\n", i, s.CPUClock(i))
	}
	for _, p := range s.Procs() {
		fmt.Fprintf(&b, "proc %s slices=%d disp=%d preempt=%d rel=%d start=%d done=%d\n",
			p.Name(), p.Slices, p.Dispatches, p.Preemptions, p.Released, p.Started, p.Completed)
	}
	if log := s.Trace(); log != nil {
		for _, ev := range log.Events() {
			fmt.Fprintf(&b, "%d cpu%d p%d %v %s %s\n",
				ev.Time, ev.CPU, ev.Proc, ev.Kind, ev.Key, ev.Message())
		}
	}
	return b.String()
}

// fastpathScenarios is the differential suite. Each entry returns a
// configured, spawned, un-run Sim; extra supplies the fields the scenario
// does not fix (the policy).
var fastpathScenarios = []struct {
	name  string
	build func(extra Config) *Sim
}{
	{"uni-slice-releases", func(extra Config) *Sim {
		// The Figure 2 shape: a victim preempted by two slice-released
		// adversaries.
		cfg := extra
		cfg.Processors, cfg.Seed, cfg.MemWords, cfg.EnableTrace = 1, 3, 1<<12, true
		return rebuildScenario0(New(cfg))
	}},
	{"multi-time-releases", func(extra Config) *Sim {
		// Two busy processors cross each other's clocks every few slices;
		// late time releases land on both a busy and an idle processor.
		cfg := extra
		cfg.Processors, cfg.Seed, cfg.MemWords, cfg.EnableTrace = 3, 4, 1<<12, true
		s := New(cfg)
		c := s.Mem().MustAlloc("ctr", 1)
		body := func(n int) func(*Env) {
			return func(e *Env) {
				for i := 0; i < n; i++ {
					v := e.Load(c)
					e.CAS(c, v, v+1)
				}
			}
		}
		s.SpawnAt(0, 0, 1, "w0", body(25))
		s.SpawnAt(3, 1, 1, "w1", body(20))
		s.SpawnAt(30, 0, 8, "hi0", func(e *Env) { e.Delay(9) })
		s.SpawnAt(31, 2, 2, "late2", body(5))
		return s
	}},
	{"zero-cost-yields", func(extra Config) *Sim {
		// Yield charges no time: a decision must not stall or miscount
		// when new-clock == clock.
		cfg := extra
		cfg.Processors, cfg.Seed, cfg.MemWords, cfg.EnableTrace = 1, 5, 1<<12, true
		s := New(cfg)
		x := s.Mem().MustAlloc("x", 1)
		s.SpawnAt(0, 0, 1, "spinner", func(e *Env) {
			for i := 0; i < 30; i++ {
				e.Yield()
				if i%3 == 0 {
					e.Store(x, uint64(i))
				}
			}
		})
		s.SpawnAt(0, 0, 4, "peer", func(e *Env) {
			for i := 0; i < 10; i++ {
				e.Load(x)
			}
		}) // released by time at t=0 alongside the spinner
		return s
	}},
	{"watchdog", func(extra Config) *Sim {
		// The watchdog fires on a runaway loop, at the same slice on
		// either path.
		cfg := extra
		cfg.Processors, cfg.Seed, cfg.MemWords, cfg.EnableTrace = 1, 6, 1<<12, true
		cfg.MaxSteps = 100
		s := New(cfg)
		x := s.Mem().MustAlloc("x", 1)
		s.SpawnAt(0, 0, 1, "loop", func(e *Env) {
			for {
				e.Store(x, e.Load(x)+1)
			}
		})
		return s
	}},
	{"notes", func(extra Config) *Sim {
		// Annotations carry fields; their times and rendered messages must
		// agree between paths.
		cfg := extra
		cfg.Processors, cfg.Seed, cfg.MemWords, cfg.EnableTrace = 1, 7, 1<<12, true
		s := New(cfg)
		x := s.Mem().MustAlloc("x", 1)
		s.SpawnAt(0, 0, 1, "noter", func(e *Env) {
			for i := 0; i < 12; i++ {
				e.Store(x, uint64(i))
				e.Note("step", trace.I("i", int64(i)), trace.I("v", int64(i*2)))
			}
		})
		s.SpawnAt(0, 0, 6, "rival", func(e *Env) {
			for i := 0; i < 4; i++ {
				e.Load(x)
			}
		})
		return s
	}},
	{"nopreempt-lapse", func(extra Config) *Sim {
		// Two arrivals land inside the runner's NoPreempt window. Under a
		// preemptive policy the one that Preempts the runner takes the
		// processor at the first decision after the window lapses. Which
		// arrival that is depends on the policy (prio 9 under priority,
		// prio 1 under reverse-priority).
		cfg := extra
		cfg.Processors, cfg.Seed, cfg.MemWords, cfg.EnableTrace = 1, 8, 1<<12, true
		s := New(cfg)
		x := s.Mem().MustAlloc("x", 2)
		s.Spawn(JobSpec{Name: "runner", CPU: 0, Prio: 5, AfterSlices: -1, Body: func(e *Env) {
			e.Store(x, 1)
			e.NoPreempt(func() {
				for i := 0; i < 10; i++ {
					e.Store(x, uint64(i))
				}
			})
			for i := 0; i < 30; i++ {
				e.Store(x+1, uint64(i))
			}
		}})
		for _, prio := range []Priority{1, 9} {
			s.Spawn(JobSpec{Name: fmt.Sprintf("arr%d", prio), CPU: 0, Prio: prio, AfterSlices: 4, Body: func(e *Env) {
				for i := 0; i < 3; i++ {
					e.Load(x)
				}
			}})
		}
		return s
	}},
}

// runSliceBySlice runs s from the scheduler's side alone: outside Run each
// process hands its unconcluded slice back (Env.yieldNow), and this loop
// concludes it and takes the next decision — Run's loop as it was before
// the direct hand-off. It is the reference Run's decisions must reproduce.
func runSliceBySlice(s *Sim) error {
	for p := s.step(); p != nil; p = s.step() {
		s.conclude(p, s.resume(p))
	}
	s.shutdown()
	return s.failure
}

// differential runs the scenario through Run and through runSliceBySlice
// and fails unless the fingerprints (slice counts included, one decision
// per slice) match byte for byte. The two paths differ only in which
// goroutine takes each decision.
func differential(t *testing.T, build func(extra Config) *Sim, extra Config) {
	t.Helper()
	run := build(extra)
	runFP := fingerprint(run, run.Run())
	ref := build(extra)
	refFP := fingerprint(ref, runSliceBySlice(ref))
	if runFP != refFP {
		t.Errorf("Run diverged from the slice-by-slice loop:\n--- Run ---\n%s--- slice by slice ---\n%s", runFP, refFP)
	}
}

// TestRunAheadDifferential runs every scenario through Run and through the
// slice-by-slice loop and requires identical runs. The name predates the
// deletion of the run-ahead grant, which batched slices inside Run and was
// held to the same loop; every slice now ends in a decision on one path.
func TestRunAheadDifferential(t *testing.T) {
	for _, sc := range fastpathScenarios {
		t.Run(sc.name, func(t *testing.T) { differential(t, sc.build, Config{}) })
	}
}

// TestResetMatchesNew runs a scenario on a fresh Sim, then reuses a Sim that
// already ran a differently-shaped scenario via Reset, and requires
// identical fingerprints — Reset must leave no residue.
func TestResetMatchesNew(t *testing.T) {
	fresh := fastpathScenarios[0].build(Config{})
	want := fingerprint(fresh, fresh.Run())

	// Dirty a Sim with a different shape: more processors, more memory,
	// notes, a watchdog failure.
	dirty := fastpathScenarios[3].build(Config{})
	if err := dirty.Run(); err == nil {
		t.Fatal("watchdog scenario unexpectedly succeeded")
	}

	// The first scenario used Processors:1 MemWords:1<<12 Seed:3 Trace:on.
	reused := dirty.Reset(Config{Processors: 1, Seed: 3, MemWords: 1 << 12, EnableTrace: true})
	rebuilt := rebuildScenario0(reused)
	if got := fingerprint(rebuilt, rebuilt.Run()); got != want {
		t.Errorf("Reset run diverged from New run:\n--- new ---\n%s--- reset ---\n%s", want, got)
	}
}

// rebuildScenario0 spawns fastpathScenarios[0]'s cast on an
// already-configured Sim: the scenario builder calls New itself, so the
// Reset and pool tests use the spawn half alone.
func rebuildScenario0(s *Sim) *Sim {
	x := s.Mem().MustAlloc("x", 4)
	s.Spawn(JobSpec{Name: "victim", CPU: 0, Prio: 1, AfterSlices: -1, Body: func(e *Env) {
		for i := 0; i < 40; i++ {
			e.Store(x, uint64(i))
		}
		e.NoPreempt(func() {
			e.Store(x, 99)
			e.Store(x+1, 100)
		})
		for i := 0; i < 10; i++ {
			e.CAS(x, uint64(99), uint64(i))
		}
	}})
	s.Spawn(JobSpec{Name: "adv1", CPU: 0, Prio: 5, AfterSlices: 7, Body: func(e *Env) {
		for i := 0; i < 6; i++ {
			e.Load(x)
		}
	}})
	s.Spawn(JobSpec{Name: "adv2", CPU: 0, Prio: 9, AfterSlices: 19, Body: func(e *Env) {
		e.Delay(5)
		e.Store(x+2, 7)
	}})
	return s
}

// TestAcquireReleaseReuse drives the pool through several acquire/run/release
// cycles and requires every cycle to reproduce the fresh-Sim fingerprint.
func TestAcquireReleaseReuse(t *testing.T) {
	run := func(s *Sim) string {
		rebuildScenario0(s)
		return fingerprint(s, s.Run())
	}
	cfg := Config{Processors: 1, Seed: 3, MemWords: 1 << 12, EnableTrace: true}
	want := run(New(cfg))
	for i := 0; i < 4; i++ {
		s := Acquire(cfg)
		if got := run(s); got != want {
			t.Fatalf("pooled run %d diverged from fresh run:\n--- fresh ---\n%s--- pooled ---\n%s", i, want, got)
		}
		Release(s)
	}
}

// allocRun executes one pooled run of `slices` stores and returns nothing;
// testing.AllocsPerRun wraps it below.
func allocRun(slices int, traced bool) {
	s := Acquire(Config{Processors: 1, Seed: 1, MemWords: 1 << 12, EnableTrace: traced})
	defer Release(s)
	x := s.Mem().MustAlloc("x", 1)
	s.SpawnAt(0, 0, 1, "w", func(e *Env) {
		for i := 0; i < slices; i++ {
			e.Store(x, uint64(i))
		}
	})
	if err := s.Run(); err != nil {
		panic(err)
	}
}

// TestAllocsPerSlice pins the slice hot path allocation-free: a pooled
// 2000-slice run may allocate only its fixed per-run overhead (coroutine,
// Proc, trace chunk), so allocations per slice must stay under
// 0.05 with tracing off and on.
func TestAllocsPerSlice(t *testing.T) {
	const slices = 2000
	for _, traced := range []bool{false, true} {
		got := testing.AllocsPerRun(10, func() { allocRun(slices, traced) })
		perSlice := got / slices
		t.Logf("traced=%v: %.1f allocs/run, %.4f allocs/slice", traced, got, perSlice)
		if perSlice > 0.05 {
			t.Errorf("traced=%v: %.4f allocs per slice (%.1f per run), want <= 0.05 — the slice hot path is allocating",
				traced, perSlice, got)
		}
	}
}

// TestAllocsPerNote pins traced annotation emission allocation-free: the
// marginal cost of a Note over an otherwise identical run must amortize to
// (well) under one allocation per note — no formatted string, no fields
// slice on the heap, only the shared chunk growth.
func TestAllocsPerNote(t *testing.T) {
	const notes = 2000
	run := func(emit bool) float64 {
		return testing.AllocsPerRun(10, func() {
			s := Acquire(Config{Processors: 1, Seed: 1, MemWords: 1 << 12, EnableTrace: true})
			defer Release(s)
			x := s.Mem().MustAlloc("x", 1)
			s.SpawnAt(0, 0, 1, "w", func(e *Env) {
				for i := 0; i < notes; i++ {
					e.Store(x, uint64(i))
					if emit {
						e.Note("tick", trace.I("i", int64(i)), trace.I("v", int64(2*i)))
					}
				}
			})
			if err := s.Run(); err != nil {
				panic(err)
			}
		})
	}
	base := run(false)
	with := run(true)
	perNote := (with - base) / notes
	t.Logf("base=%.1f with-notes=%.1f -> %.4f allocs/note", base, with, perNote)
	if perNote > 0.05 {
		t.Errorf("%.4f allocations per Note (base %.1f, with notes %.1f), want <= 0.05 — note emission is allocating per event",
			perNote, base, with)
	}
}
