package registry

import (
	"reflect"
	"testing"

	"repro/internal/native"
	"repro/internal/prim"
	"repro/internal/sched"
)

// zeroConfigOps is the op stream length each zero-config run applies.
const zeroConfigOps = 60

// TestZeroConfigBuildsAndApplies: every descriptor builds from Config{} on
// both backends and applies its own Ops stream — generated from the same
// zero Config — without panicking, matching its sequential model op for op
// (one process, so the run is sequential). The zero Config leaves CC
// unset: on the simulator every multiprocessor object's New defaults it to
// prim.Native (so the run makes atomic CCAS steps), and off the simulator
// Normalize defaults it to prim.Tagged and still refuses prim.Native.
func TestZeroConfigBuildsAndApplies(t *testing.T) {
	for _, d := range All() {
		ops := d.Ops(Config{}, 1, 0, zeroConfigOps)
		want := make([]Result, len(ops))
		model := d.NewModel(Config{})
		for i, op := range ops {
			want[i] = model.Apply(op)
		}
		check := func(t *testing.T, inst Instance, got []Result) {
			t.Helper()
			if !reflect.DeepEqual(got, want) {
				t.Errorf("results diverge from the model:\ngot  %v\nwant %v", got, want)
			}
			if snap := inst.Snapshot(); !reflect.DeepEqual(snap, model.Snapshot()) {
				t.Errorf("snapshot %v, model %v", snap, model.Snapshot())
			}
		}
		t.Run(d.Name+"/sim", func(t *testing.T) {
			s := sched.New(sched.Config{Processors: 2, Seed: 1, MemWords: 1 << 17})
			inst, err := Build(s, d.Name, Config{})
			if err != nil {
				t.Fatal(err)
			}
			got := make([]Result, len(ops))
			s.SpawnAt(0, 0, 1, "zero", func(e *sched.Env) {
				for i, op := range ops {
					got[i] = inst.Apply(e, 0, op)
				}
			})
			if err := s.Run(); err != nil {
				t.Fatal(err)
			}
			check(t, inst, got)
			if ccas := s.Report(d.Name).Mem.CCAS; d.Family == FamilyMulti && ccas == 0 {
				t.Error("an unset CC did not default to prim.Native: the run made no atomic CCAS step")
			}
		})
		t.Run(d.Name+"/native", func(t *testing.T) {
			w, place := nativeLayout(d.Family, native.NewMem(1<<17), 2)
			var cfg Config
			if err := d.Normalize(NativeBackend(w), &cfg); err != nil || cfg.CC != prim.Tagged() {
				t.Errorf("Normalize off the simulator: CC %s, err %v (want tagged, nil)", cfg.CC.Name(), err)
			}
			cfg = Config{CC: prim.Native()}
			if err := d.Normalize(NativeBackend(w), &cfg); err == nil {
				t.Error("Normalize accepted prim.Native off the simulator")
			}
			inst, err := BuildOn(NativeBackend(w), d.Name, Config{})
			if err != nil {
				t.Fatal(err)
			}
			cpu, prio := place(0)
			p := w.NewProc(0, cpu, prio)
			got := make([]Result, len(ops))
			for i, op := range ops {
				p.Begin()
				got[i] = inst.Apply(p, 0, op)
				p.End()
			}
			check(t, inst, got)
		})
	}
}

// TestMWCASRejectsBadWordIndices: an OpMWCAS naming no word or a word the
// instance does not hold is rejected with OK=false and leaves every word
// untouched, on the instances and on the sequential model alike.
func TestMWCASRejectsBadWordIndices(t *testing.T) {
	bad := []Op{
		{Code: OpMWCAS, Delta: 1},
		{Code: OpMWCAS, Words: []int{2}, Delta: 1},
		{Code: OpMWCAS, Words: []int{0, 5}, Delta: 1},
		{Code: OpMWCAS, Words: []int{-1}, Delta: 1},
	}
	cfg := Config{Words: 2, Initial: []uint64{10, 20}}
	for _, name := range []string{"unimwcas", "multimwcas"} {
		d := Lookup0(name)
		model := d.NewModel(cfg)
		for _, op := range bad {
			if r := model.Apply(op); r.OK {
				t.Errorf("%s model accepted %v", name, op.Words)
			}
		}
		w, place := nativeLayout(d.Family, native.NewMem(1<<16), 1)
		inst, err := BuildOn(NativeBackend(w), name, cfg)
		if err != nil {
			t.Fatal(err)
		}
		cpu, prio := place(0)
		p := w.NewProc(0, cpu, prio)
		for _, op := range bad {
			p.Begin()
			r := inst.Apply(p, 0, op)
			p.End()
			if r.OK {
				t.Errorf("%s accepted %v", name, op.Words)
			}
		}
		if got := inst.Snapshot(); !reflect.DeepEqual(got, []uint64{10, 20}) {
			t.Errorf("%s: rejected transactions changed the words to %v", name, got)
		}
		if got := model.Snapshot(); !reflect.DeepEqual(got, []uint64{10, 20}) {
			t.Errorf("%s model: rejected transactions changed the words to %v", name, got)
		}
	}
	s := sched.New(sched.Config{Processors: 1, Seed: 1, MemWords: 1 << 12})
	if _, err := Build(s, "unimwcas", Config{Words: -1}); err == nil {
		t.Error("negative Words accepted")
	}
}

// nativeAllocOps is the op stream length the native allocation gate replays.
const nativeAllocOps = 512

// TestNativeAllocGate pins the native hot path allocation-free: every core
// object, built on the native backend with the default software CCAS, runs
// Begin/Apply/End over its own op stream at 0 Go allocations per operation.
// (Before the Figure 8 window became one Ctx.GuardedCAS call, the closure
// it ran under cost 13 allocs/op on multiqueue, 6 on multistack and
// multimwcas, 5 on multilist and 3 on multihash; unimwcas's heap-allocated
// private arrays cost 2.)
func TestNativeAllocGate(t *testing.T) {
	if native.RaceEnabled {
		t.Skip("allocation counts are not meaningful under -race")
	}
	for _, name := range CoreNames() {
		t.Run(name, func(t *testing.T) {
			d := Lookup0(name)
			cfg := Config{Procs: 1, Capacity: 4*nativeAllocOps + 64, Words: 4}
			w, place := nativeLayout(d.Family, native.NewMem(1<<18), 2)
			inst, err := BuildOn(NativeBackend(w), name, cfg)
			if err != nil {
				t.Fatal(err)
			}
			cpu, prio := place(0)
			p := w.NewProc(0, cpu, prio)
			ops := d.Ops(cfg, 1, 0, nativeAllocOps)
			apply := func(op Op) {
				p.Begin()
				inst.Apply(p, 0, op)
				p.End()
			}
			// One warm pass grows the per-slot scratch buffers to the
			// stream's widest operation; the measured pass replays it.
			for _, op := range ops {
				apply(op)
			}
			i := 0
			avg := testing.AllocsPerRun(len(ops), func() {
				apply(ops[i%len(ops)])
				i++
			})
			t.Logf("%s: %.2f allocs/op", name, avg)
			if avg != 0 {
				t.Errorf("%s: %.2f Go allocations per native op, want 0", name, avg)
			}
		})
	}
}
