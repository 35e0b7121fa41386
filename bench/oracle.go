package main

import (
	"fmt"

	"repro/internal/registry"
)

// The output oracles. Each runs on a round's outcomes before any of its
// numbers is used; a failure makes the run incorrect.

// checkList is list-read's oracle: for every key, initial presence plus
// successful inserts minus successful deletes must be 0 or 1 and must match
// the final snapshot, which must be strictly ascending.
func checkList(initial []uint64, ops [][]registry.Op, res [][]registry.Result, snapshot []uint64) error {
	net := map[uint64]int{}
	for _, k := range initial {
		net[k] = 1
	}
	for s := range ops {
		for i, op := range ops[s] {
			if !res[s][i].OK {
				continue
			}
			switch op.Code {
			case registry.OpInsert:
				net[op.Key]++
			case registry.OpDelete:
				net[op.Key]--
			}
		}
	}
	present := 0
	for k, n := range net {
		if n < 0 || n > 1 {
			return fmt.Errorf("list: key %d has presence %d after the successful inserts and deletes", k, n)
		}
		present += n
	}
	for i, k := range snapshot {
		if i > 0 && snapshot[i-1] >= k {
			return fmt.Errorf("list: snapshot not strictly ascending at %d (%d after %d)", i, k, snapshot[i-1])
		}
		if net[k] != 1 {
			return fmt.Errorf("list: key %d is in the snapshot but its tally says absent", k)
		}
	}
	if len(snapshot) != present {
		return fmt.Errorf("list: snapshot holds %d keys, the tallies say %d", len(snapshot), present)
	}
	return nil
}

// checkQueue is queue-backlog's oracle. Value queueValue(p, q) is producer
// p's q-th enqueue, for q in [1, enq[p]]. The dequeued values (deq[c] in
// consumer c's order) plus the final snapshot must hold every enqueued
// value exactly once, and each producer's values must leave in order: rising
// within every consumer's sequence and within the snapshot, and every
// dequeued one before every one still queued.
func checkQueue(enq []int, deq [][]uint64, snapshot []uint64) error {
	seen := make([][]bool, len(enq))
	for p, n := range enq {
		seen[p] = make([]bool, n+1)
	}
	maxDeq := make([]int, len(enq))
	take := func(v uint64, where string, lastSeq []int) (int, int, error) {
		p, q := int(v>>32)-1, int(v&0xffffffff)
		if p < 0 || p >= len(enq) || q < 1 || q > enq[p] {
			return 0, 0, fmt.Errorf("queue: %s holds %#x, which no producer enqueued", where, v)
		}
		if seen[p][q] {
			return 0, 0, fmt.Errorf("queue: value %d of producer %d left twice (again in %s)", q, p, where)
		}
		seen[p][q] = true
		if q <= lastSeq[p] {
			return 0, 0, fmt.Errorf("queue: producer %d's value %d left after its value %d in %s", p, q, lastSeq[p], where)
		}
		lastSeq[p] = q
		return p, q, nil
	}
	for c, vals := range deq {
		last := make([]int, len(enq))
		for _, v := range vals {
			p, q, err := take(v, fmt.Sprintf("consumer %d", c), last)
			if err != nil {
				return err
			}
			maxDeq[p] = max(maxDeq[p], q)
		}
	}
	last := make([]int, len(enq))
	for _, v := range snapshot {
		p, q, err := take(v, "the final queue", last)
		if err != nil {
			return err
		}
		if q < maxDeq[p] {
			return fmt.Errorf("queue: producer %d's value %d is still queued after its value %d was dequeued", p, q, maxDeq[p])
		}
	}
	for p := range seen {
		for q := 1; q <= enq[p]; q++ {
			if !seen[p][q] {
				return fmt.Errorf("queue: producer %d's value %d was lost", p, q)
			}
		}
	}
	return nil
}

// checkCounter is counter-hot's oracle: every key's total must equal the
// sum of the deltas of its applied requests.
func checkCounter(totals, want []uint64) error {
	if len(totals) != len(want) {
		return fmt.Errorf("counter: %d totals for %d keys", len(totals), len(want))
	}
	for k := range want {
		if totals[k] != want[k] {
			return fmt.Errorf("counter: key %d totals %d, the applied deltas sum to %d", k, totals[k], want[k])
		}
	}
	return nil
}
