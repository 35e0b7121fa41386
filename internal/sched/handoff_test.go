package sched

// Tests for the direct hand-off (Env.handOff): a process that makes the next
// decision resumes the chosen process itself and hosts it, so a failure can
// surface several coroutines deep. Each case below must end exactly as
// dispatch from Run's own loop ends it — the same error text — leave no
// goroutine behind after Release, and leave the pooled Sim's recycled
// coroutines fit to run the next schedule identically.

import (
	"crypto/sha256"
	"errors"
	"fmt"
	"runtime"
	"strings"
	"testing"

	"repro/internal/shmem"
)

// handoffScenario is a traced three-processor cast run on a reset Sim after
// each unwind case: two lows interleave on CPUs 0 and 1, a slice-released
// high preempts on CPU 0, and a time-released job joins on CPU 2.
func handoffScenario(s *Sim) {
	x := s.Mem().MustAlloc("x", 2)
	loop := func(n int) func(*Env) {
		return func(e *Env) {
			for i := 0; i < n; i++ {
				v := e.Load(x)
				e.CAS(x, v, v+1)
			}
		}
	}
	s.SpawnAt(0, 0, 1, "lo0", loop(30))
	s.SpawnAt(0, 1, 1, "lo1", loop(25))
	s.Spawn(JobSpec{Name: "hi0", CPU: 0, Prio: 5, Slot: -1, AfterSlices: 17, Body: loop(5)})
	s.SpawnAt(40, 2, 1, "late2", loop(8))
}

// handoffDigest is handoffScenario's fingerprint digest under slice-by-slice
// dispatch from Run's own loop: the reference the hand-off must reproduce.
const handoffDigest = "cfa31da71164215258648c8892ea3ac954ad81d047300ebd3e2e77e73537f575"

// hostingDepth counts the processes currently hosting another.
func hostingDepth(s *Sim) int {
	n := 0
	for _, p := range s.proc {
		if p.hosting {
			n++
		}
	}
	return n
}

func TestHandoffUnwind(t *testing.T) {
	cases := []struct {
		name string
		cpus int
		// steps is the watchdog limit; 0 keeps the default.
		steps uint64
		// build spawns the failing cast; bodies report the hosting depth
		// they observe through depth.
		build func(s *Sim, depth func(*Env))
		// wantErr is the first line of Run's error under dispatch from
		// Run's loop; minDepth the hosting depth the run must reach.
		wantErr  string
		minDepth int
	}{
		{
			name: "watchdog-mid-duet", cpus: 2, steps: 101,
			build: func(s *Sim, depth func(*Env)) {
				x := s.Mem().MustAlloc("x", 2)
				for cpu := 0; cpu < 2; cpu++ {
					a := x + shmem.Addr(cpu)
					s.SpawnAt(0, cpu, 1, fmt.Sprintf("w%d", cpu), func(e *Env) {
						for {
							e.Store(a, e.Load(a)+1)
							depth(e)
						}
					})
				}
			},
			// Slice 102 is w1's, concluded while w0 hosts it.
			wantErr:  "sched: watchdog: step limit exceeded (livelock or runaway workload) (limit 101)",
			minDepth: 1,
		},
		{
			name: "panic-while-hosted", cpus: 2,
			build: func(s *Sim, depth func(*Env)) {
				x := s.Mem().MustAlloc("x", 1)
				s.SpawnAt(0, 0, 1, "host", func(e *Env) {
					for i := 0; i < 50; i++ {
						e.Load(x)
					}
				})
				s.SpawnAt(0, 1, 1, "guest", func(e *Env) {
					for i := 0; i < 5; i++ {
						e.Load(x)
					}
					depth(e)
					if !e.sim.proc[0].hosting {
						panic("guest is not hosted by host")
					}
					panic("boom")
				})
			},
			wantErr:  `sched: process "guest" (id 1) panicked: boom`,
			minDepth: 1,
		},
		{
			name: "four-cpu-chain", cpus: 4,
			build: func(s *Sim, depth func(*Env)) {
				x := s.Mem().MustAlloc("x", 1)
				// Three round-robin workers: the third's next pick is
				// the first, two levels up the chain.
				for cpu := 0; cpu < 3; cpu++ {
					s.SpawnAt(0, cpu, 1, fmt.Sprintf("w%d", cpu), func(e *Env) {
						for i := 0; i < 40; i++ {
							e.Load(x)
							depth(e)
						}
					})
				}
				// A late fourth joins at the bottom of the chain and
				// panics there, three hosts deep.
				s.SpawnAt(20, 3, 1, "late", func(e *Env) {
					for i := 0; i < 3; i++ {
						e.Load(x)
						depth(e)
					}
					panic("deep")
				})
			},
			wantErr:  `sched: process "late" (id 3) panicked: deep`,
			minDepth: 3,
		},
	}
	for _, tc := range cases {
		t.Run(tc.name, func(t *testing.T) {
			before := runtime.NumGoroutine()
			s := Acquire(Config{Processors: tc.cpus, Seed: 1, MemWords: 1 << 10, MaxSteps: tc.steps})
			maxDepth := 0
			tc.build(s, func(e *Env) { maxDepth = max(maxDepth, hostingDepth(e.sim)) })
			err := s.Run()
			if err == nil {
				t.Fatal("Run returned nil, want the case's failure")
			}
			if got, _, _ := strings.Cut(err.Error(), "\n"); got != tc.wantErr {
				t.Errorf("Run error = %q, want %q", got, tc.wantErr)
			}
			if tc.steps > 0 && !errors.Is(err, ErrWatchdog) {
				t.Errorf("Run error %v does not wrap ErrWatchdog", err)
			}
			if maxDepth < tc.minDepth {
				t.Errorf("hosting depth reached %d, want at least %d", maxDepth, tc.minDepth)
			}
			if d := hostingDepth(s); d != 0 {
				t.Errorf("%d processes still hosting after Run", d)
			}

			s.Reset(Config{Processors: 3, Seed: 9, MemWords: 1 << 10, EnableTrace: true})
			handoffScenario(s)
			fp := fingerprint(s, s.Run())
			if got := fmt.Sprintf("%x", sha256.Sum256([]byte(fp))); got != handoffDigest {
				t.Errorf("reset run digest %s, want %s\n%s", got, handoffDigest, fp)
			}
			Release(s)
			if after := runtime.NumGoroutine(); after != before {
				t.Errorf("goroutines: %d before Acquire, %d after Release", before, after)
			}
		})
	}
}
