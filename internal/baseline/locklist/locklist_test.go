package locklist_test

import (
	"errors"
	"testing"

	"repro/internal/arena"
	"repro/internal/baseline/locklist"
	"repro/internal/sched"
)

func newList(t testing.TB, s *sched.Sim, slots, nodes int) (*arena.Arena, *locklist.List) {
	t.Helper()
	ar, err := arena.New(s.Mem(), nodes, slots)
	if err != nil {
		t.Fatal(err)
	}
	l, err := locklist.New(s.Mem(), ar)
	if err != nil {
		t.Fatal(err)
	}
	ar.Freeze()
	return ar, l
}

func TestSequentialSemantics(t *testing.T) {
	s := sched.New(sched.Config{Processors: 1, Seed: 1, MemWords: 1 << 16})
	_, l := newList(t, s, 1, 32)
	s.SpawnAt(0, 0, 1, "p", func(e *sched.Env) {
		if !l.Insert(e, 10, 0) || !l.Insert(e, 5, 0) || l.Insert(e, 10, 0) {
			t.Error("insert semantics wrong")
		}
		if !l.Search(e, 5) || l.Search(e, 6) {
			t.Error("search semantics wrong")
		}
		if !l.Delete(e, 10) || l.Delete(e, 10) {
			t.Error("delete semantics wrong")
		}
	})
	if err := s.Run(); err != nil {
		t.Fatal(err)
	}
	if got := l.Snapshot(); len(got) != 1 || got[0] != 5 {
		t.Errorf("final list = %v, want [5]", got)
	}
}

// TestMultiprocessorWithoutPreemptionWorks: with one process per processor
// (no preemption), the lock-based list is perfectly fine.
func TestMultiprocessorWithoutPreemptionWorks(t *testing.T) {
	s := sched.New(sched.Config{Processors: 4, Seed: 2, MemWords: 1 << 16})
	_, l := newList(t, s, 4, 128)
	for cpu := 0; cpu < 4; cpu++ {
		cpu := cpu
		s.Spawn(sched.JobSpec{Name: "", CPU: cpu, Prio: 1, Slot: cpu, At: 0, AfterSlices: -1, Body: func(e *sched.Env) {
			for i := 0; i < 20; i++ {
				key := uint64(1 + e.Rand().Intn(30))
				if e.Rand().Intn(2) == 0 {
					l.Insert(e, key, 0)
				} else {
					l.Delete(e, key)
				}
			}
		}})
	}
	if err := s.Run(); err != nil {
		t.Fatal(err)
	}
	snap := l.Snapshot()
	for i := 1; i < len(snap); i++ {
		if snap[i-1] >= snap[i] {
			t.Fatalf("list unsorted or duplicated: %v", snap)
		}
	}
}

// TestPriorityInversionLivelock is ablation A5: on a priority uniprocessor,
// a higher-priority process spinning on a lock held by a preempted
// lower-priority process spins forever. The run's step watchdog detects the
// livelock. This is the motivating failure for wait-free kernel objects
// (Section 1). Under fcfs the same run completes: a non-preemptive policy
// never lets the spinner displace the lock holder, so the failure is the
// priority model's, not the lock's alone.
func TestPriorityInversionLivelock(t *testing.T) {
	for _, tc := range []struct {
		policy   string
		livelock bool
	}{
		{"priority", true},
		{"fcfs", false},
	} {
		t.Run(tc.policy, func(t *testing.T) {
			pol, err := sched.PolicyByName(tc.policy)
			if err != nil {
				t.Fatal(err)
			}
			s := sched.New(sched.Config{Processors: 1, Seed: 1, MemWords: 1 << 16, MaxSteps: 200_000, Policy: pol})
			_, l := newList(t, s, 2, 128)
			// Low priority: holds the lock across a long critical section.
			s.Spawn(sched.JobSpec{Name: "low", CPU: 0, Prio: 1, Slot: 0, AfterSlices: -1, Body: func(e *sched.Env) {
				l.Lock(e)
				for i := 1; i <= 100; i++ {
					e.Yield() // critical-section work with preemption points
				}
				l.Unlock(e)
			}})
			// High priority: arrives mid-critical-section.
			s.Spawn(sched.JobSpec{Name: "high", CPU: 0, Prio: 9, Slot: 1, AfterSlices: 40, Body: func(e *sched.Env) {
				l.Search(e, 1)
			}})
			err = s.Run()
			if !tc.livelock {
				if err != nil {
					t.Fatalf("Run err = %v, want completion (the lock holder is never preempted)", err)
				}
				return
			}
			if !errors.Is(err, sched.ErrWatchdog) {
				t.Fatalf("Run err = %v, want watchdog livelock (unbounded priority inversion)", err)
			}
			if l.Spins.Load() == 0 {
				t.Error("no spins recorded; the high-priority process never contended")
			}
		})
	}
}

// TestInversionAvoidedIfNotMidSection: the same two processes do not
// livelock when the preemption lands outside the critical section.
func TestInversionAvoidedIfNotMidSection(t *testing.T) {
	s := sched.New(sched.Config{Processors: 1, Seed: 1, MemWords: 1 << 16, MaxSteps: 200_000})
	_, l := newList(t, s, 2, 64)
	s.Spawn(sched.JobSpec{Name: "low", CPU: 0, Prio: 1, Slot: 0, AfterSlices: -1, Body: func(e *sched.Env) {
		for i := 1; i <= 10; i++ {
			l.Insert(e, uint64(i), 0)
		}
	}})
	// Released at a virtual time when the low process is between
	// operations (the lock is free): t=0 arrival preempts before the
	// first acquire.
	s.Spawn(sched.JobSpec{Name: "high", CPU: 0, Prio: 9, Slot: 1, At: 1, AfterSlices: -1, Body: func(e *sched.Env) {
		l.Search(e, 1)
	}})
	if err := s.Run(); err != nil {
		t.Fatalf("Run: %v (no inversion expected)", err)
	}
}
