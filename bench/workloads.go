package main

import (
	"fmt"
	"math/rand"
	"sync"

	"repro/internal/native"
	"repro/internal/registry"
	"repro/internal/service"
)

// streamSeed derives the op-stream seed of one slot in one round from the
// run's seed: the same seed always yields the same inputs.
func streamSeed(seed int64, round, slot int) int64 {
	return seed*1_000_003 + int64(round)*7_919 + int64(slot)*104_729
}

// newProcs places slot s on shard s at priority 0, the registry's layout
// for the multiprocessor family with one process per shard.
func newProcs(w *native.World) []*native.Proc {
	procs := make([]*native.Proc, nativeSlots)
	for s := range procs {
		procs[s] = w.NewProc(s, s, 0)
	}
	return procs
}

// runMutex drives every slot's n ops through apply under one sync.Mutex,
// one goroutine per slot, and returns ops/s: the reference a plain Go
// structure sets for the same streams.
func runMutex(slots, n int, apply func(slot, i int)) float64 {
	var mu sync.Mutex
	var wg sync.WaitGroup
	t0 := now()
	for s := 0; s < slots; s++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for i := 0; i < n; i++ {
				mu.Lock()
				apply(s, i)
				mu.Unlock()
			}
		}()
	}
	wg.Wait()
	return float64(slots*n) / (float64(now()-t0) / 1e9)
}

// list-read: multilist with 256 keys seeded in a 512-key range, 90% search,
// 5% insert, 5% delete, uniform keys.
const (
	listSize     = 256
	listKeyRange = 2 * listSize
	// listPoolPerSlot absorbs the random walk of each slot's node pool
	// within a round (inserts allocate from the inserter's pool, deletes
	// free to the deleter's); exhaustion panics by design.
	listPoolPerSlot = 4096
	listSearchPct   = 90
)

// listSeedKeys are the even keys of the range, the workload package's
// seeding, so half of all searches hit.
func listSeedKeys() []uint64 {
	keys := make([]uint64, listSize)
	for i := range keys {
		keys[i] = uint64(2 * (i + 1))
	}
	return keys
}

func listStream(seed int64, n int) []registry.Op {
	rng := rand.New(rand.NewSource(seed))
	ops := make([]registry.Op, n)
	for i := range ops {
		key := uint64(1 + rng.Intn(listKeyRange))
		switch r := rng.Intn(100); {
		case r < listSearchPct:
			ops[i] = registry.Op{Code: registry.OpSearch, Key: key}
		case r < listSearchPct+(100-listSearchPct)/2:
			ops[i] = registry.Op{Code: registry.OpInsert, Key: key, Val: key}
		default:
			ops[i] = registry.Op{Code: registry.OpDelete, Key: key}
		}
	}
	return ops
}

func registryCode(c registry.OpCode) int {
	switch c {
	case registry.OpSearch:
		return codeSearch
	case registry.OpInsert:
		return codeInsert
	case registry.OpDelete:
		return codeDelete
	case registry.OpEnqueue:
		return codeEnqueue
	}
	return codeDequeue
}

// registryRound wires a registry instance's per-slot streams into a round.
func registryRound(w *native.World, procs []*native.Proc, inst registry.Instance, ops [][]registry.Op) (*nativeRound, [][]registry.Result) {
	res := make([][]registry.Result, len(ops))
	r := &nativeRound{world: w}
	for s := range ops {
		p, o := procs[s], ops[s]
		out := make([]registry.Result, len(o))
		res[s] = out
		r.slots = append(r.slots, nativeSlot{
			proc:  p,
			n:     len(o),
			apply: func(i int) { out[i] = inst.Apply(p, s, o[i]) },
			code:  func(i int) int { return registryCode(o[i].Code) },
		})
	}
	r.outcomes = func(t *tally) {
		for s := range ops {
			for i, op := range ops[s] {
				c := registryCode(op.Code)
				t.codeOps[c]++
				if res[s][i].OK {
					t.codeOK[c]++
				}
			}
		}
	}
	return r, res
}

var listSpec = nativeSpec{
	opsPerSlot: 100_000,
	simRuns:    8,
	sim:        listSim,
	round: func(seed int64, round, n int, tr *tracer) (*nativeRound, int64, error) {
		ops := make([][]registry.Op, nativeSlots)
		for s := range ops {
			ops[s] = listStream(streamSeed(seed, round, s), n)
		}
		seedKeys := listSeedKeys()
		capacity := listSize + nativeSlots*listPoolPerSlot + 8
		start := now()
		w := native.NewWorld(native.NewMem(1<<15+capacity*8+nativeSlots*64), nativeSlots)
		b0 := now()
		inst, err := registry.BuildOn(registry.NativeBackend(w), "multilist", registry.Config{
			Procs: nativeSlots, Capacity: capacity, SeedKeys: seedKeys,
		})
		if err != nil {
			return nil, 0, err
		}
		tr.mark("setup.BuildOn multilist", 0, b0)
		procs := newProcs(w)
		setup := now() - start

		r, res := registryRound(w, procs, inst, ops)
		r.check = func() error { return checkList(seedKeys, ops, res, inst.Snapshot()) }
		r.mutex = func() float64 {
			set := make(map[uint64]uint64, listKeyRange)
			for _, k := range seedKeys {
				set[k] = k
			}
			return runMutex(nativeSlots, n, func(s, i int) {
				op := ops[s][i]
				switch op.Code {
				case registry.OpInsert:
					if _, ok := set[op.Key]; !ok {
						set[op.Key] = op.Val
					}
				case registry.OpDelete:
					delete(set, op.Key)
				default:
					_ = set[op.Key]
				}
			})
		}
		return r, setup, nil
	},
}

// queue-backlog: multiqueue prefilled with queueDepth elements split across
// the slots; each slot strictly alternates enqueue and dequeue, so its node
// pool stays within one node and the depth within two of queueDepth.
const (
	queueDepth       = 256
	queuePoolPerSlot = 1024
)

// queueValue encodes producer slot and its 1-based sequence number, so the
// oracle can check both the multiset and each producer's order.
func queueValue(slot, seq int) uint64 { return uint64(slot+1)<<32 | uint64(seq) }

var queueSpec = nativeSpec{
	opsPerSlot: 10_000,
	simRuns:    4,
	sim:        queueSimRun,
	round: func(seed int64, round, n int, tr *tracer) (*nativeRound, int64, error) {
		prefill := queueDepth / nativeSlots
		ops := make([][]registry.Op, nativeSlots)
		enq := make([]int, nativeSlots)
		for s := range ops {
			enq[s] = prefill
			ops[s] = make([]registry.Op, n)
			for i := range ops[s] {
				if i%2 == 0 {
					enq[s]++
					ops[s][i] = registry.Op{Code: registry.OpEnqueue, Val: queueValue(s, enq[s])}
				} else {
					ops[s][i] = registry.Op{Code: registry.OpDequeue}
				}
			}
		}
		capacity := queueDepth + nativeSlots*queuePoolPerSlot + 8
		start := now()
		w := native.NewWorld(native.NewMem(1<<15+capacity*8+nativeSlots*64), nativeSlots)
		b0 := now()
		inst, err := registry.BuildOn(registry.NativeBackend(w), "multiqueue", registry.Config{
			Procs: nativeSlots, Capacity: capacity,
		})
		if err != nil {
			return nil, 0, err
		}
		tr.mark("setup.BuildOn multiqueue", 0, b0)
		procs := newProcs(w)
		// Prefill from this goroutine before the slot goroutines start
		// (the go statement orders it before their first op).
		p0 := now()
		for k := 1; k <= prefill; k++ {
			for s, p := range procs {
				p.Begin()
				inst.Apply(p, s, registry.Op{Code: registry.OpEnqueue, Val: queueValue(s, k)})
				p.End()
			}
		}
		tr.mark("setup.prefill", 0, p0)
		setup := now() - start

		r, res := registryRound(w, procs, inst, ops)
		r.check = func() error {
			deq := make([][]uint64, nativeSlots)
			for s := range ops {
				for i, op := range ops[s] {
					if op.Code == registry.OpDequeue && res[s][i].OK {
						deq[s] = append(deq[s], res[s][i].Val)
					}
				}
			}
			return checkQueue(enq, deq, inst.Snapshot())
		}
		r.mutex = func() float64 {
			var fifo []uint64
			for k := 1; k <= prefill; k++ {
				for s := 0; s < nativeSlots; s++ {
					fifo = append(fifo, queueValue(s, k))
				}
			}
			return runMutex(nativeSlots, n, func(s, i int) {
				if op := ops[s][i]; op.Code == registry.OpEnqueue {
					fifo = append(fifo, op.Val)
				} else if len(fifo) > 0 {
					fifo = fifo[1:]
				}
			})
		}
		return r, setup, nil
	},
}

// counter-hot: the service hot-key counter, wait-free variant, 64 keys with
// Zipf 1.2 popularity and deltas in [1, 4].
const (
	counterKeys  = 64
	counterZipf  = 1.2
	counterDelta = 4
)

func counterStream(seed int64, n int) []service.Req {
	rng := rand.New(rand.NewSource(seed))
	zipf := rand.NewZipf(rng, counterZipf, 1, counterKeys-1)
	reqs := make([]service.Req, n)
	for i := range reqs {
		reqs[i] = service.Req{Key: int(zipf.Uint64()), Delta: 1 + uint64(rng.Intn(counterDelta))}
	}
	return reqs
}

// counterSpec runs twelve simulator sub-runs: each has only two burst jobs.
var counterSpec = nativeSpec{
	opsPerSlot: 300_000,
	simRuns:    12,
	sim:        counterSim,
	round: func(seed int64, round, n int, tr *tracer) (*nativeRound, int64, error) {
		reqs := make([][]service.Req, nativeSlots)
		for s := range reqs {
			reqs[s] = counterStream(streamSeed(seed, round, s), n)
		}
		start := now()
		w := native.NewWorld(native.NewMem(1<<16+nativeSlots*(counterKeys+128)+2*nativeSlots*counterKeys), nativeSlots)
		b0 := now()
		st, err := service.NewStore(registry.NativeBackend(w), service.StoreConfig{
			Kind: service.Counter, Variant: service.WaitFree, Keys: counterKeys, Slots: nativeSlots,
		})
		if err != nil {
			return nil, 0, err
		}
		tr.mark("setup.NewStore counter/waitfree", 0, b0)
		procs := newProcs(w)
		setup := now() - start

		resp := make([][]service.Resp, nativeSlots)
		r := &nativeRound{world: w}
		for s := range reqs {
			p, q := procs[s], reqs[s]
			out := make([]service.Resp, n)
			resp[s] = out
			r.slots = append(r.slots, nativeSlot{
				proc:  p,
				n:     n,
				apply: func(i int) { out[i] = st.Apply(p, s, q[i]) },
				code:  func(int) int { return codeRequest },
			})
		}
		r.check = func() error {
			want := make([]uint64, counterKeys)
			for s := range reqs {
				for i, q := range reqs[s] {
					if resp[s][i].Applied {
						want[q.Key] += q.Delta
					}
				}
			}
			return checkCounter(st.Totals(), want)
		}
		r.outcomes = func(t *tally) {
			for s := range resp {
				for _, o := range resp[s] {
					t.codeOps[codeRequest]++
					t.retries += o.Retries
					if o.Applied {
						t.codeOK[codeRequest]++
					} else {
						t.lost++
					}
				}
			}
		}
		r.mutex = func() float64 {
			var words [counterKeys]uint64
			return runMutex(nativeSlots, n, func(s, i int) {
				words[reqs[s][i].Key] += reqs[s][i].Delta
			})
		}
		return r, setup, nil
	},
}

// nativeWorkloads maps each native workload to its spec.
var nativeWorkloads = map[string]nativeSpec{
	"list-read":     listSpec,
	"queue-backlog": queueSpec,
	"counter-hot":   counterSpec,
}

func unknownWorkload(name string) error {
	return fmt.Errorf("unknown workload %q (have %v)", name, workloadNames)
}
