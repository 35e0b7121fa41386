package sched

// Tests for the pluggable scheduling-policy layer. The load-bearing
// contracts pinned here:
//
//   - the registry resolves every shipped template and rejects typos;
//   - the default policy reproduces the pre-policy readyHeap comparator
//     (priority descending, enqueue order ascending) exactly — the
//     byte-identity foundation every golden output rests on;
//   - deterministic tie-breaking is scheduler-owned: under EVERY policy,
//     equal-key processes dispatch in release (FIFO) order, matching the
//     serial loop's order at any worker count;
//   - preemption semantics per template (who preempts whom);
//   - VerifyPriorityModel refuses non-priority runs with a typed error
//     rather than a vacuous pass;
//   - under every policy, the slice boundary where a NoPreempt window
//     lapses is a decision that hands the processor to a waiting job that
//     Preempts the runner, and Run stays byte-identical to the
//     slice-by-slice loop.

import (
	"errors"
	"sort"
	"strings"
	"testing"
)

func TestPolicyRegistry(t *testing.T) {
	names := PolicyNames()
	if !sort.StringsAreSorted(names) {
		t.Errorf("PolicyNames() not sorted: %v", names)
	}
	want := []string{"age-slo", "fcfs", "priority", "priority-fcfs", "reverse-priority", "sjf"}
	if len(names) != len(want) {
		t.Fatalf("PolicyNames() = %v, want %v", names, want)
	}
	for i, n := range want {
		if names[i] != n {
			t.Fatalf("PolicyNames() = %v, want %v", names, want)
		}
	}
	for _, n := range names {
		p, err := PolicyByName(n)
		if err != nil {
			t.Fatalf("PolicyByName(%q): %v", n, err)
		}
		if p.Name() != n {
			t.Errorf("PolicyByName(%q).Name() = %q", n, p.Name())
		}
	}
	def, err := PolicyByName("")
	if err != nil || def != DefaultPolicy() {
		t.Errorf("PolicyByName(\"\") = %v, %v; want the default policy", def, err)
	}
	if DefaultPolicy().Name() != "priority" {
		t.Errorf("DefaultPolicy().Name() = %q, want \"priority\"", DefaultPolicy().Name())
	}
	if _, err := PolicyByName("bogus"); err == nil || !strings.Contains(err.Error(), "priority") {
		t.Errorf("PolicyByName(\"bogus\") = %v, want an error listing the known policies", err)
	}
}

// TestDefaultPolicyMatchesLegacyOrder pops a ready heap populated under the
// default policy and requires exactly the pre-policy comparator's order:
// priority descending, enqueue number ascending. This is the differential
// pin for the key-based readyBefore rewrite.
func TestDefaultPolicyMatchesLegacyOrder(t *testing.T) {
	def := DefaultPolicy()
	prios := []Priority{3, 9, 1, 9, 5, 3, 7, 1, 5, 9, 2, 8}
	var h readyHeap
	procs := make([]*Proc, len(prios))
	for i, prio := range prios {
		p := &Proc{id: i, enqueueNo: i}
		p.spec.Prio = prio
		p.key = def.Key(JobInfo{ID: i, Prio: prio})
		procs[i] = p
		h.push(p)
	}
	legacy := append([]*Proc(nil), procs...)
	sort.SliceStable(legacy, func(i, j int) bool {
		if legacy[i].spec.Prio != legacy[j].spec.Prio {
			return legacy[i].spec.Prio > legacy[j].spec.Prio
		}
		return legacy[i].enqueueNo < legacy[j].enqueueNo
	})
	for i, want := range legacy {
		got := h.pop()
		if got != want {
			t.Fatalf("pop %d: got proc %d (prio %d, enq %d), want proc %d (prio %d, enq %d)",
				i, got.id, got.spec.Prio, got.enqueueNo, want.id, want.spec.Prio, want.enqueueNo)
		}
	}
}

// TestPolicyTieBreakFIFO pins the scheduler-owned tie-break for every
// registered policy: processes whose keys compare equal pop in enqueue
// (release) order. Equal keys are manufactured per policy by giving every
// job identical policy inputs.
func TestPolicyTieBreakFIFO(t *testing.T) {
	for _, name := range PolicyNames() {
		t.Run(name, func(t *testing.T) {
			pol, err := PolicyByName(name)
			if err != nil {
				t.Fatal(err)
			}
			var h readyHeap
			const n = 9
			for i := 0; i < n; i++ {
				p := &Proc{id: i, enqueueNo: 100 + i}
				p.spec.Prio = 4
				p.key = pol.Key(JobInfo{ID: i, Prio: 4, Cost: 12, Released: 50})
				h.push(p)
			}
			for i := 0; i < n; i++ {
				got := h.pop()
				if got.id != i {
					t.Fatalf("pop %d: got proc %d — equal keys must dispatch FIFO", i, got.id)
				}
			}
		})
	}
}

// TestPolicyPreemption pins each template's preempt-on-release behavior on
// a live simulation: a long-running current process and one late arrival,
// with the arrival's preemption (or its absence) read off Proc.Preemptions.
func TestPolicyPreemption(t *testing.T) {
	cases := []struct {
		policy      string
		curPrio     Priority
		latePrio    Priority
		wantPreempt bool
	}{
		{"priority", 5, 9, true},          // higher priority preempts
		{"priority", 5, 3, false},         // lower never does
		{"fcfs", 5, 9, false},             // nothing preempts
		{"priority-fcfs", 5, 9, false},    // priority orders, never preempts
		{"sjf", 5, 9, false},              // non-preemptive
		{"reverse-priority", 5, 1, true},  // the stressor: LOWER priority preempts
		{"reverse-priority", 5, 9, false}, // ...and higher does not
		{"age-slo", 5, 9, true},           // fresher deadline-pressure key preempts
	}
	for _, tc := range cases {
		t.Run(tc.policy+"-late", func(t *testing.T) {
			pol, err := PolicyByName(tc.policy)
			if err != nil {
				t.Fatal(err)
			}
			s := New(Config{Processors: 1, Seed: 1, MemWords: 1 << 10, Policy: pol})
			x := s.Mem().MustAlloc("x", 1)
			s.Spawn(JobSpec{Name: "cur", CPU: 0, Prio: tc.curPrio, AfterSlices: -1, Cost: 30, Body: func(e *Env) {
				for i := 0; i < 30; i++ {
					e.Store(x, uint64(i))
				}
			}})
			s.Spawn(JobSpec{Name: "late", CPU: 0, Prio: tc.latePrio, AfterSlices: 5, Cost: 3, Body: func(e *Env) {
				for i := 0; i < 3; i++ {
					e.Load(x)
				}
			}})
			if err := s.Run(); err != nil {
				t.Fatal(err)
			}
			var cur *Proc
			for _, p := range s.Procs() {
				if p.Name() == "cur" {
					cur = p
				}
			}
			if got := cur.Preemptions > 0; got != tc.wantPreempt {
				t.Errorf("policy %s: cur (prio %d) preempted by late (prio %d) = %v, want %v",
					tc.policy, tc.curPrio, tc.latePrio, got, tc.wantPreempt)
			}
		})
	}
}

// TestVerifyPriorityModelPolicyGate: the trace-replay verifier checks the
// paper's strict-priority discipline and must refuse — with the typed
// sentinel, naming the policy — to bless a run scheduled by anything else.
func TestVerifyPriorityModelPolicyGate(t *testing.T) {
	run := func(name string) *Sim {
		pol, err := PolicyByName(name)
		if err != nil {
			t.Fatal(err)
		}
		s := New(Config{Processors: 1, Seed: 1, MemWords: 1 << 10, EnableTrace: true, Policy: pol})
		x := s.Mem().MustAlloc("x", 1)
		s.Spawn(JobSpec{Name: "a", CPU: 0, Prio: 1, AfterSlices: -1, Body: func(e *Env) {
			for i := 0; i < 10; i++ {
				e.Store(x, uint64(i))
			}
		}})
		s.Spawn(JobSpec{Name: "b", CPU: 0, Prio: 9, AfterSlices: 4, Body: func(e *Env) {
			e.Load(x)
		}})
		if err := s.Run(); err != nil {
			t.Fatal(err)
		}
		return s
	}
	if err := VerifyPriorityModel(run("")); err != nil {
		t.Errorf("default policy: VerifyPriorityModel = %v, want nil", err)
	}
	err := VerifyPriorityModel(run("fcfs"))
	if !errors.Is(err, ErrNonPriorityPolicy) {
		t.Fatalf("fcfs: VerifyPriorityModel = %v, want ErrNonPriorityPolicy", err)
	}
	if !strings.Contains(err.Error(), "fcfs") {
		t.Errorf("gate error should name the policy, got: %v", err)
	}
}

// TestRunAheadPolicyGate drives the scheduler by hand through a NoPreempt
// window that two arrivals (prio 1 and prio 9) land inside. Every decision
// while the window is open must keep the runner. Under the preemptive
// templates (priority, age-slo, reverse-priority) the first decision after
// the window lapses must hand the processor to the waiting job that
// Preempts the runner; under the non-preemptive ones the runner keeps it.
// The name predates the deletion of the run-ahead grant, which had to
// refuse batching in exactly this state because the window may lapse at
// any slice boundary; every boundary is now a decision.
func TestRunAheadPolicyGate(t *testing.T) {
	preemptive := map[string]bool{"": true, "priority": true, "age-slo": true, "reverse-priority": true}
	for _, name := range append([]string{""}, PolicyNames()...) {
		label := name
		if label == "" {
			label = "default"
		}
		t.Run(label, func(t *testing.T) {
			pol, err := PolicyByName(name)
			if err != nil {
				t.Fatal(err)
			}
			s := New(Config{Processors: 1, Seed: 1, MemWords: 1 << 10, Policy: pol})
			x := s.Mem().MustAlloc("x", 1)
			w := s.Spawn(JobSpec{Name: "w", CPU: 0, Prio: 5, AfterSlices: -1, Body: func(e *Env) {
				e.Store(x, 0)
				e.NoPreempt(func() {
					for i := 0; i < 10; i++ {
						e.Store(x, uint64(i))
					}
				})
				for i := 0; i < 5; i++ {
					e.Store(x, uint64(i))
				}
			}})
			for _, prio := range []Priority{1, 9} {
				s.Spawn(JobSpec{CPU: 0, Prio: prio, AfterSlices: 4, Body: func(e *Env) { e.Load(x) }})
			}
			defer s.shutdown()
			c := s.cpus[0]
			// Outside Run each process hands its unconcluded slice back
			// here, so the test takes every decision itself.
			opened := false
			for {
				p := s.step()
				if p == nil {
					t.Fatalf("policy %s: run ended before w's NoPreempt window lapsed", label)
				}
				s.conclude(p, s.resume(p))
				if p != w {
					t.Fatalf("policy %s: %s ran at slice %d, before w's window lapsed", label, p.Name(), s.slices)
				}
				if w.env.noPreempt > 0 {
					opened = true
					continue
				}
				if opened {
					break
				}
			}
			if len(c.ready) != 2 {
				t.Fatalf("policy %s: %d jobs waiting when the window lapsed, want both arrivals", label, len(c.ready))
			}
			top := c.ready[0]
			if pol.Preempts(top.key, w.key) != preemptive[name] {
				t.Fatalf("policy %s: waiting %s Preempts the runner = %v, want %v",
					label, top.Name(), !preemptive[name], preemptive[name])
			}
			want := w
			if preemptive[name] {
				want = top
			}
			if got := s.step(); got != want {
				t.Errorf("policy %s: first decision after the window lapsed ran %s, want %s", label, got.Name(), want.Name())
			}
		})
	}
}

// TestRunAheadDifferentialAllPolicies extends the differential to every
// policy template: Run and the slice-by-slice loop must produce
// byte-identical runs of every fastpath scenario, so the direct hand-off
// takes each policy's own decisions. The name predates the deletion of
// the run-ahead grant, which was held to the same loop.
func TestRunAheadDifferentialAllPolicies(t *testing.T) {
	for _, name := range PolicyNames() {
		pol, err := PolicyByName(name)
		if err != nil {
			t.Fatal(err)
		}
		for _, sc := range fastpathScenarios {
			t.Run(name+"/"+sc.name, func(t *testing.T) { differential(t, sc.build, Config{Policy: pol}) })
		}
	}
}

// TestPolicyDivergesFromDefault pins that the non-default templates are
// not behavioral no-ops: on a contended cast at least one observable
// (order, preemptions, completion times) must differ from the default
// policy's run for every template except priority-fcfs' degenerate cases.
func TestPolicyDivergesFromDefault(t *testing.T) {
	build := func(pol Policy) *Sim {
		s := New(Config{Processors: 1, Seed: 2, MemWords: 1 << 10, EnableTrace: true, Policy: pol})
		x := s.Mem().MustAlloc("x", 1)
		body := func(n int) func(*Env) {
			return func(e *Env) {
				for i := 0; i < n; i++ {
					e.Store(x, uint64(i))
				}
			}
		}
		s.Spawn(JobSpec{Name: "low", CPU: 0, Prio: 1, AfterSlices: -1, Cost: 24, Body: body(24)})
		s.Spawn(JobSpec{Name: "mid", CPU: 0, Prio: 5, AfterSlices: 6, Cost: 10, Body: body(10)})
		s.Spawn(JobSpec{Name: "high", CPU: 0, Prio: 9, AfterSlices: 11, Cost: 4, Body: body(4)})
		return s
	}
	def := build(DefaultPolicy())
	defFP := fingerprint(def, def.Run())
	for _, name := range []string{"fcfs", "sjf", "reverse-priority"} {
		pol, err := PolicyByName(name)
		if err != nil {
			t.Fatal(err)
		}
		s := build(pol)
		if fp := fingerprint(s, s.Run()); fp == defFP {
			t.Errorf("policy %s produced a fingerprint identical to the default policy on a contended cast", name)
		}
	}

	// age-slo needs a cast where aging actually overrules priority: an old
	// low-priority job and a young high-priority job queued behind a long
	// runner. The low job's age key (Released - 24·Prio) beats the high
	// job's, so it dispatches first — the default policy picks the high one.
	buildAge := func(pol Policy) *Sim {
		s := New(Config{Processors: 1, Seed: 3, MemWords: 1 << 10, Policy: pol})
		x := s.Mem().MustAlloc("x", 1)
		body := func(n int) func(*Env) {
			return func(e *Env) {
				for i := 0; i < n; i++ {
					e.Store(x, uint64(i))
				}
			}
		}
		s.Spawn(JobSpec{Name: "runner", CPU: 0, Prio: 5, AfterSlices: -1, Cost: 300, Body: body(300)})
		s.Spawn(JobSpec{Name: "old-low", CPU: 0, Prio: 1, AfterSlices: -1, At: 10, Cost: 8, Body: body(8)})
		s.Spawn(JobSpec{Name: "young-high", CPU: 0, Prio: 9, AfterSlices: -1, At: 250, Cost: 8, Body: body(8)})
		return s
	}
	ageDef := buildAge(DefaultPolicy())
	ageDefFP := fingerprint(ageDef, ageDef.Run())
	agePol, err := PolicyByName("age-slo")
	if err != nil {
		t.Fatal(err)
	}
	ageRun := buildAge(agePol)
	if fp := fingerprint(ageRun, ageRun.Run()); fp == ageDefFP {
		t.Errorf("policy age-slo produced a fingerprint identical to the default policy on an aged cast")
	}
}
