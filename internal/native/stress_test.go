// Race-detector stress for every registered object on the native backend
// (satellite of the native-backend tentpole). Each object runs its canonical
// generated op streams from real goroutines; the oracles are quiescent
// conservation laws that hold for ANY linearizable execution, so they need
// no schedule knowledge:
//
//   - sorted sets: per-key flow balance — seeded + successful inserts −
//     successful deletes must equal final membership, and the snapshot must
//     be strictly sorted;
//   - queues/stacks: value conservation — the generator emits globally
//     unique values, so multiset(enqueued) = multiset(dequeued) +
//     multiset(remaining);
//   - MWCAS arrays: delta accounting — each word's final value is its
//     initial value plus the deltas of the successful operations that
//     touched it.
//
// Under -race the run doubles as a memory-model audit: every shared access
// of every object goes through native.Mem's atomics or a shard's handoff,
// and the detector certifies no object smuggles an unsynchronized access.
package native_test

import (
	"fmt"
	"math/rand"
	"runtime"
	"sort"
	"sync"
	"testing"

	"repro/internal/native"
	"repro/internal/registry"
	"repro/internal/shmem"
)

// stressSizes returns the goroutine counts to stress. The full run covers
// 2×GOMAXPROCS (maximum genuine parallelism plus oversubscription) and 64
// (the acceptance bar); -short keeps one 32-wide run on the ci race line.
func stressSizes() []int {
	if testing.Short() {
		return []int{32}
	}
	sizes := []int{2 * runtime.GOMAXPROCS(0), 64}
	if sizes[0] >= sizes[1] {
		sizes = sizes[:1]
	}
	return sizes
}

func TestNativeStress(t *testing.T) {
	ops := 120
	if testing.Short() {
		ops = 40
	}
	for _, d := range registry.All() {
		for _, procs := range stressSizes() {
			t.Run(fmt.Sprintf("%s/p%d", d.Name, procs), func(t *testing.T) {
				d, procs := d, procs
				t.Parallel()
				cfg := d.StressConfig(procs)
				cfg.Check = false // white-box checkers are simulator-only
				if d.Name != "herlihy" {
					// Let the harness size the per-process node pools to the
					// op budget (arena exhaustion panics by design). Herlihy
					// keeps StressConfig's capacity: there it is the state
					// array size and its block store scales with
					// capacity×procs, not with operations.
					cfg.Capacity = 0
				}
				res, err := d.RunNative(registry.NativeRun{
					Procs: procs, Ops: ops, Seed: 42, Cfg: cfg,
				})
				if err != nil {
					t.Fatal(err)
				}
				if got := res.OpsDone(); got != procs*ops {
					t.Fatalf("applied %d ops, want %d", got, procs*ops)
				}
				checkConservation(t, d, res)
				if err := res.Inst.CheckErr(); err != nil {
					t.Fatalf("CheckErr: %v", err)
				}
			})
		}
	}
}

// TestNativeListRead runs the multiprocessor list's read-mostly mix — a
// 256-key seeded list, 90% searches over a 512-key range — on real
// goroutines. Most searches take the read-only walk, whose plain loads race
// with the splices, unsplices and node recycling of the updates; under
// -race the run certifies those loads go through native.Mem's atomics. The
// oracle is the sorted-set flow balance of TestNativeStress.
func TestNativeListRead(t *testing.T) {
	const (
		size, keyRange = 256, 512
		procs, shards  = 4, 2
	)
	ops := 4000
	if testing.Short() {
		ops = 1000
	}
	seed := make([]uint64, size)
	for i := range seed {
		seed[i] = uint64(2 * (i + 1))
	}
	// RunNative's sizing: every op may allocate from its own slot's pool.
	capacity := procs*(ops+4) + 2*size + 8
	w := native.NewWorld(native.NewMem(1<<15+capacity*8+procs*64), shards)
	inst, err := registry.BuildOn(registry.NativeBackend(w), "multilist",
		registry.Config{Procs: procs, Capacity: capacity, SeedKeys: seed})
	if err != nil {
		t.Fatal(err)
	}
	streams := make([][]registry.Op, procs)
	results := make([][]registry.Result, procs)
	var wg sync.WaitGroup
	for slot := range streams {
		rng := rand.New(rand.NewSource(int64(slot) + 1))
		for range ops {
			key := uint64(1 + rng.Intn(keyRange))
			op := registry.Op{Code: registry.OpSearch, Key: key}
			switch r := rng.Intn(100); {
			case r >= 95:
				op.Code = registry.OpDelete
			case r >= 90:
				op = registry.Op{Code: registry.OpInsert, Key: key, Val: key}
			}
			streams[slot] = append(streams[slot], op)
		}
		// RunNative's multiprocessor layout: distinct priorities within a
		// shard, so a read can be preempted mid-walk by an update.
		p := w.NewProc(slot, slot%shards, shmem.Priority(slot/shards))
		wg.Add(1)
		go func() {
			defer wg.Done()
			for _, op := range streams[slot] {
				p.Begin()
				results[slot] = append(results[slot], inst.Apply(p, slot, op))
				p.End()
			}
		}()
	}
	wg.Wait()

	balance := map[uint64]int{}
	for _, k := range seed {
		balance[k]++
	}
	searches := 0
	for slot, rs := range results {
		for i, r := range rs {
			switch op := streams[slot][i]; {
			case op.Code == registry.OpSearch:
				searches++
			case op.Code == registry.OpInsert && r.OK:
				balance[op.Key]++
			case op.Code == registry.OpDelete && r.OK:
				balance[op.Key]--
			}
		}
	}
	if searches*10 < procs*ops*8 {
		t.Fatalf("%d searches in %d ops: not a read-mostly mix", searches, procs*ops)
	}
	snap := inst.Snapshot()
	present := map[uint64]bool{}
	for i, k := range snap {
		if i > 0 && snap[i-1] >= k {
			t.Fatalf("snapshot not strictly sorted at %d", i)
		}
		present[k] = true
	}
	for k, b := range balance {
		if b != 0 && b != 1 || (b == 1) != present[k] {
			t.Fatalf("key %d: seed+insertOK-deleteOK = %d but present = %v", k, b, present[k])
		}
	}
	for k := range present {
		if _, ok := balance[k]; !ok {
			t.Fatalf("key %d in final snapshot was never seeded or inserted", k)
		}
	}
}

// checkConservation applies the model-kind's quiescent invariant to the
// finished run.
func checkConservation(t *testing.T, d *registry.Descriptor, res *registry.NativeResult) {
	t.Helper()
	snap := res.Inst.Snapshot()
	switch d.Model {
	case registry.ModelSorted:
		checkSortedFlow(t, d, res, snap)
	case registry.ModelFIFO, registry.ModelLIFO:
		checkValueConservation(t, d, res, snap)
	case registry.ModelWords:
		checkDeltaAccounting(t, d, res, snap)
	default:
		t.Fatalf("no conservation oracle for model %v", d.Model)
	}
}

func checkSortedFlow(t *testing.T, d *registry.Descriptor, res *registry.NativeResult, snap []uint64) {
	t.Helper()
	for i := 1; i < len(snap); i++ {
		if snap[i-1] >= snap[i] {
			t.Fatalf("snapshot not strictly sorted at %d: %v", i, snap)
		}
	}
	// balance[k] = seeded + inserts that reported success − deletes that
	// reported success. Inserts succeed only on absent keys and deletes
	// only on present ones, so the balance must be exactly the final
	// membership (0 or 1) for every key.
	balance := map[uint64]int{}
	for _, k := range seedKeysOf(d) {
		balance[k]++
	}
	for slot, results := range res.Results {
		ops := opsFor(d, res, slot)
		for i, r := range results {
			if !r.OK {
				continue
			}
			switch ops[i].Code {
			case registry.OpInsert:
				balance[ops[i].Key]++
			case registry.OpDelete:
				balance[ops[i].Key]--
			}
		}
	}
	final := map[uint64]bool{}
	for _, k := range snap {
		final[k] = true
	}
	for k, b := range balance {
		want := 0
		if final[k] {
			want = 1
		}
		if b != want {
			t.Fatalf("key %d: seed+insertOK-deleteOK = %d but final membership = %d (snapshot %v)", k, b, want, snap)
		}
	}
	for k := range final {
		if _, seen := balance[k]; !seen {
			t.Fatalf("key %d in final snapshot was never seeded or inserted", k)
		}
	}
}

func checkValueConservation(t *testing.T, d *registry.Descriptor, res *registry.NativeResult, snap []uint64) {
	t.Helper()
	var in, out []uint64
	for slot, results := range res.Results {
		ops := opsFor(d, res, slot)
		for i, r := range results {
			switch ops[i].Code {
			case registry.OpEnqueue, registry.OpPush:
				if r.OK {
					in = append(in, ops[i].Val)
				}
			case registry.OpDequeue, registry.OpPop:
				if r.OK {
					out = append(out, r.Val)
				}
			}
		}
	}
	out = append(out, snap...)
	sort.Slice(in, func(i, j int) bool { return in[i] < in[j] })
	sort.Slice(out, func(i, j int) bool { return out[i] < out[j] })
	if len(in) != len(out) {
		t.Fatalf("value conservation: %d values in, %d accounted for (removed + %d remaining)", len(in), len(out), len(snap))
	}
	for i := range in {
		if in[i] != out[i] {
			t.Fatalf("value conservation: multiset mismatch at %d: inserted %d, accounted %d", i, in[i], out[i])
		}
	}
}

func checkDeltaAccounting(t *testing.T, d *registry.Descriptor, res *registry.NativeResult, snap []uint64) {
	t.Helper()
	cfg := d.StressConfig(len(res.Results))
	want := make([]uint64, cfg.Words)
	copy(want, cfg.Initial)
	for slot, results := range res.Results {
		ops := opsFor(d, res, slot)
		for i, r := range results {
			if !r.OK {
				continue
			}
			for _, w := range ops[i].Words {
				want[w] += ops[i].Delta
			}
		}
	}
	if len(snap) != len(want) {
		t.Fatalf("snapshot has %d words, want %d", len(snap), len(want))
	}
	for w := range want {
		if snap[w] != want[w] {
			t.Fatalf("word %d = %d, want initial+successful deltas = %d", w, snap[w], want[w])
		}
	}
}

// opsFor regenerates the deterministic op stream the run used for one slot.
func opsFor(d *registry.Descriptor, res *registry.NativeResult, slot int) []registry.Op {
	cfg := d.StressConfig(len(res.Results))
	return d.Ops(cfg, 42, slot, len(res.Results[slot]))
}

func seedKeysOf(d *registry.Descriptor) []uint64 {
	return d.StressConfig(1).SeedKeys
}
