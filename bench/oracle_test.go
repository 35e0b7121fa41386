package main

import (
	"testing"

	"repro/internal/linz/adversary"
	"repro/internal/registry"
)

// Each oracle must accept a consistent tally and reject a corrupted one.

func TestCheckListRejectsCorruption(t *testing.T) {
	initial := []uint64{2, 4}
	ops := func() [][]registry.Op {
		return [][]registry.Op{
			{{Code: registry.OpInsert, Key: 3}, {Code: registry.OpDelete, Key: 2}},
			{{Code: registry.OpInsert, Key: 3}, {Code: registry.OpSearch, Key: 4}},
		}
	}
	res := func() [][]registry.Result {
		return [][]registry.Result{{{OK: true}, {OK: true}}, {{OK: false}, {OK: true}}}
	}
	if err := checkList(initial, ops(), res(), []uint64{3, 4}); err != nil {
		t.Fatalf("consistent tally rejected: %v", err)
	}
	lostInsert := res()
	lostInsert[0][0].OK = false
	doubleInsert := res()
	doubleInsert[1][0].OK = true
	for name, tc := range map[string]struct {
		res      [][]registry.Result
		snapshot []uint64
	}{
		"missing key":        {res(), []uint64{3}},
		"extra key":          {res(), []uint64{2, 3, 4}},
		"not ascending":      {res(), []uint64{4, 3}},
		"insert not tallied": {lostInsert, []uint64{3, 4}},
		"double insert":      {doubleInsert, []uint64{3, 4}},
	} {
		if err := checkList(initial, ops(), tc.res, tc.snapshot); err == nil {
			t.Errorf("%s: accepted", name)
		}
	}
}

func TestCheckQueueRejectsCorruption(t *testing.T) {
	enq := []int{3, 2}
	v := queueValue
	good := func() ([][]uint64, []uint64) {
		return [][]uint64{{v(0, 1), v(1, 1)}, {v(0, 2)}}, []uint64{v(0, 3), v(1, 2)}
	}
	deq, snap := good()
	if err := checkQueue(enq, deq, snap); err != nil {
		t.Fatalf("consistent history rejected: %v", err)
	}
	for name, corrupt := range map[string]func(deq [][]uint64, snap []uint64) ([][]uint64, []uint64){
		"lost":       func(d [][]uint64, s []uint64) ([][]uint64, []uint64) { return d, s[:1] },
		"duplicated": func(d [][]uint64, s []uint64) ([][]uint64, []uint64) { return d, append(s, v(1, 1)) },
		"foreign":    func(d [][]uint64, s []uint64) ([][]uint64, []uint64) { return d, append(s, v(1, 3)) },
		"reordered":  func(d [][]uint64, s []uint64) ([][]uint64, []uint64) { d[1][0], s[0] = s[0], d[1][0]; return d, s },
		"within consumer": func(d [][]uint64, s []uint64) ([][]uint64, []uint64) {
			d[0] = []uint64{v(0, 2), v(0, 1), v(1, 1)}
			d[1] = nil
			return d, s
		},
	} {
		d, s := corrupt(good())
		if err := checkQueue(enq, d, s); err == nil {
			t.Errorf("%s: accepted %v %v", name, d, s)
		}
	}
}

func TestCheckCounterRejectsCorruption(t *testing.T) {
	if err := checkCounter([]uint64{5, 0, 7}, []uint64{5, 0, 7}); err != nil {
		t.Fatalf("consistent totals rejected: %v", err)
	}
	if err := checkCounter([]uint64{5, 1, 6}, []uint64{5, 0, 7}); err == nil {
		t.Error("moved delta accepted")
	}
	if err := checkCounter([]uint64{5, 0}, []uint64{5, 0, 7}); err == nil {
		t.Error("missing key accepted")
	}
}

// TestCheckVerifyRejectsCorruption corrupts a real recorded history: a
// successful dequeue that returns a value no one enqueued.
func TestCheckVerifyRejectsCorruption(t *testing.T) {
	for seed := int64(1); seed <= 20; seed++ {
		r, err := adversary.Execute(adversary.Config{Object: "multiqueue", Seed: seed})
		if err != nil {
			t.Fatal(err)
		}
		if _, err := checkVerify(r); err != nil {
			t.Fatalf("seed %d: recorded history rejected: %v", seed, err)
		}
		for i, op := range r.History.Ops {
			if op.Op.Code == registry.OpDequeue && op.Result.OK && !op.Pending {
				r.History.Ops[i].Result.Val = 1 << 40
				if _, err := checkVerify(r); err == nil {
					t.Fatalf("seed %d: corrupted dequeue accepted", seed)
				}
				r.Close()
				return
			}
		}
		r.Close()
	}
	t.Fatal("no successful dequeue in 20 seeds")
}
