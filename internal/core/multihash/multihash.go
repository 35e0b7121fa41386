// Package multihash implements a wait-free hash table for priority-based
// multiprocessors — the third "linear" structure of the paper's Section 4
// ("queues, stacks, and hash tables are just as straightforward to
// implement as linked lists").
//
// The table is an array of K sorted bucket chains, each running from its
// own head sentinel to one shared tail sentinel, operated like the
// multiprocessor list (Figure 7): per-processor announce records, cyclic or
// priority helping rings, version-guarded CCAS for every structural update,
// and the round-stable duplicate/absence discriminators. An operation costs
// Θ(T/K) expected — the classic hash speedup — with the same Θ(2·P·(T/K))
// helping bound.
//
// Unlike the list, the scan does NOT use a shared checkpoint. The list's
// Ann[R].ptr trick is only sound because its announce resets the checkpoint
// to a *constant* start (the global head): the reset and the pid publish
// are separate writes, and a preemption between them lets another process
// on the same processor move the checkpoint — harmlessly for the list,
// whose every announce restores the same constant, but fatally for a hash,
// whose reset target depends on the operation's bucket (we hit exactly this
// as a wrong-bucket splice during development; see the test
// TestAnnounceSplitPreemption). Buckets are short, so helpers simply scan
// privately from the bucket head.
package multihash

import (
	"fmt"
	"slices"

	"repro/internal/arena"
	"repro/internal/helping"
	"repro/internal/prim"
	"repro/internal/shmem"
	"repro/internal/trace"
)

// Operation codes stored in Par[p].op.
const (
	opIns uint64 = iota + 1
	opDel
	opSch
)

// Rv values (as in the multiprocessor list).
const (
	// RvPending: the operation has not completed.
	RvPending uint64 = 0
	// RvFalse: the operation completed and reports false.
	RvFalse uint64 = 1
	// RvTrue: the operation completed and reports true.
	RvTrue uint64 = 2
)

// Done is the completion predicate.
func Done(rv uint64) bool { return rv != RvPending }

// KeyMin and KeyMax are reserved sentinel keys.
const (
	KeyMin = uint64(0)
	KeyMax = ^uint64(0)
)

// Config configures the table.
type Config struct {
	// Processors is P; Procs is N; Buckets is K.
	Processors, Procs, Buckets int
	// CC selects the CCAS implementation; defaults to Native.
	CC prim.Impl
	// Mode selects cyclic or priority helping; defaults to Cyclic.
	Mode helping.Mode
	// OneRound enables the single-traversal optimization of [1].
	OneRound bool
}

// Table is a wait-free hash table.
type Table struct {
	mem shmem.Memory
	ar  *arena.Arena
	cc  prim.Impl
	eng *helping.Engine
	n   int
	k   int

	heads []arena.Ref // bucket head sentinels
	last  arena.Ref   // shared tail sentinel
	par   shmem.Rows  // Par[p]: node, key, op (N+1 rows)
}

const (
	parNode  = 0
	parKey   = 1
	parOp    = 2
	parWidth = 3
)

// New creates a table; the arena must not be frozen.
func New(m shmem.Memory, ar *arena.Arena, cfg Config) (*Table, error) {
	if cfg.Procs < 1 {
		return nil, fmt.Errorf("multihash: process count %d out of range", cfg.Procs)
	}
	if cfg.Buckets < 1 {
		return nil, fmt.Errorf("multihash: bucket count %d out of range", cfg.Buckets)
	}
	if cfg.CC == nil {
		cfg.CC = prim.Native{}
	}
	if cfg.Mode == 0 {
		cfg.Mode = helping.Cyclic
	}
	par, err := shmem.NewRows(m, "HPar", cfg.Procs+1, parWidth)
	if err != nil {
		return nil, fmt.Errorf("multihash: %w", err)
	}
	t := &Table{mem: m, ar: ar, cc: cfg.CC, n: cfg.Procs, k: cfg.Buckets, par: par}
	ar.SetNextImpl(cfg.CC)
	t.last = ar.Static()
	m.Poke(ar.KeyAddr(t.last), KeyMax)
	cfg.CC.InitWord(m, ar.NextAddr(t.last), uint64(arena.NIL))
	t.heads = make([]arena.Ref, cfg.Buckets)
	for b := range t.heads {
		h := ar.Static()
		t.heads[b] = h
		m.Poke(ar.KeyAddr(h), KeyMin)
		cfg.CC.InitWord(m, ar.NextAddr(h), uint64(t.last))
	}
	eng, err := helping.New(m, helping.Config{
		Processors: cfg.Processors,
		Procs:      cfg.Procs,
		Mode:       cfg.Mode,
		CC:         cfg.CC,
		Done:       Done,
		Help:       t.help,
		OneRound:   cfg.OneRound,
	}, RvTrue)
	if err != nil {
		return nil, err
	}
	t.eng = eng
	return t, nil
}

// bucket maps a key to its bucket head sentinel.
func (t *Table) bucket(key uint64) arena.Ref { return t.heads[int(key%uint64(t.k))] }

func (t *Table) parAddr(p int, f shmem.Addr) shmem.Addr {
	return t.par.Row(p) + f
}

// Engine exposes the helping engine for checkers and benches.
func (t *Table) Engine() *helping.Engine { return t.eng }

// Buckets returns K.
func (t *Table) Buckets() int { return t.k }

// Insert adds key, reporting false on duplicate.
func (t *Table) Insert(e shmem.Ctx, key, val uint64) bool {
	t.checkKey(key)
	p := e.Slot()
	node, ok := t.ar.Alloc(e, p)
	if !ok {
		panic(fmt.Sprintf("multihash: process %d exhausted its node pool", p))
	}
	e.Store(t.ar.KeyAddr(node), key)
	e.Store(t.ar.ValAddr(node), val)
	t.cc.Write(e, t.ar.NextAddr(node), uint64(arena.NIL))
	t.cc.Write(e, t.parAddr(p, parNode), uint64(node))
	e.Store(t.parAddr(p, parKey), key)
	e.Store(t.parAddr(p, parOp), opIns)
	t.cc.Write(e, t.eng.RvAddr(p), RvPending)
	t.eng.DoOp(e)
	if t.cc.Read(e, t.eng.RvAddr(p)) == RvTrue {
		return true
	}
	t.ar.Free(e, p, node)
	return false
}

// Delete removes key, reporting whether it was present.
func (t *Table) Delete(e shmem.Ctx, key uint64) bool {
	t.checkKey(key)
	p := e.Slot()
	e.Store(t.parAddr(p, parKey), key)
	e.Store(t.parAddr(p, parOp), opDel)
	t.cc.Write(e, t.parAddr(p, parNode), uint64(arena.NIL))
	t.cc.Write(e, t.eng.RvAddr(p), RvPending)
	t.eng.DoOp(e)
	node := arena.Ref(t.cc.Read(e, t.parAddr(p, parNode)))
	if node == arena.NIL {
		return false
	}
	t.ar.Free(e, p, node)
	return true
}

// Search reports whether key is present.
func (t *Table) Search(e shmem.Ctx, key uint64) bool {
	t.checkKey(key)
	p := e.Slot()
	e.Store(t.parAddr(p, parKey), key)
	e.Store(t.parAddr(p, parOp), opSch)
	t.cc.Write(e, t.eng.RvAddr(p), RvPending)
	t.eng.DoOp(e)
	return t.cc.Read(e, t.eng.RvAddr(p)) == RvTrue
}

// help mirrors the multiprocessor list's Help (Figure 7 lines 38-58); the
// scan simply starts at the operation's bucket.
func (t *Table) help(e shmem.Ctx, ver helping.Version) {
	vw := helping.PackVersion(ver)
	pid := t.eng.AnnPid(e, ver.Target)
	key := e.Load(t.parAddr(pid, parKey))
	curr := t.findpos(e, key, ver, pid)
	if e.Load(t.eng.VAddr()) != vw {
		return
	}
	nextp := arena.Ref(t.cc.Read(e, t.ar.NextAddr(curr)))
	if e.Load(t.eng.VAddr()) != vw {
		return
	}
	nextnextp := arena.Ref(t.cc.Read(e, t.ar.NextAddr(nextp)))
	nextkey := e.Load(t.ar.KeyAddr(nextp))
	if t.cc.Read(e, t.eng.RvAddr(pid)) != RvPending {
		return
	}
	switch e.Load(t.parAddr(pid, parOp)) {
	case opIns:
		newNode := arena.Ref(t.cc.Read(e, t.parAddr(pid, parNode)))
		if nextkey != key {
			t.cc.Exec(e, t.eng.VAddr(), vw, t.ar.NextAddr(newNode), uint64(arena.NIL), uint64(nextp))
			if t.cc.Exec(e, t.eng.VAddr(), vw, t.ar.NextAddr(curr), uint64(nextp), uint64(newNode)) {
				if e.Traced() {
					e.Note("hsplice", trace.I("p", int64(pid)), trace.I("key", int64(key)))
				}
			}
		} else if arena.Ref(t.cc.Read(e, t.ar.NextAddr(newNode))) == arena.NIL {
			t.cc.Exec(e, t.eng.VAddr(), vw, t.eng.RvAddr(pid), RvPending, RvFalse)
			return
		}
	case opDel:
		if nextkey == key {
			t.cc.Exec(e, t.eng.VAddr(), vw, t.parAddr(pid, parNode), uint64(arena.NIL), uint64(nextp))
			if t.cc.Exec(e, t.eng.VAddr(), vw, t.ar.NextAddr(curr), uint64(nextp), uint64(nextnextp)) {
				if e.Traced() {
					e.Note("hunsplice", trace.I("p", int64(pid)), trace.I("key", int64(key)))
				}
			}
		} else if arena.Ref(t.cc.Read(e, t.parAddr(pid, parNode))) == arena.NIL {
			t.cc.Exec(e, t.eng.VAddr(), vw, t.eng.RvAddr(pid), RvPending, RvFalse)
			return
		}
	case opSch:
		if nextkey != key {
			t.cc.Exec(e, t.eng.VAddr(), vw, t.eng.RvAddr(pid), RvPending, RvFalse)
			return
		}
	default:
		return
	}
	t.cc.Exec(e, t.eng.VAddr(), vw, t.eng.RvAddr(pid), RvPending, RvTrue)
}

// findpos scans the operation's bucket privately from its head (see the
// package comment for why no shared checkpoint is used), returning the
// predecessor of the first node with key >= key. The walk checks the round
// version per hop so it never strays onto recycled chains.
func (t *Table) findpos(e shmem.Ctx, key uint64, ver helping.Version, help int) arena.Ref {
	vw := helping.PackVersion(ver)
	probe := t.bucket(key)
	for hops := 0; hops <= t.ar.Capacity(); hops++ {
		nextp := arena.Ref(t.cc.Read(e, t.ar.NextAddr(probe)))
		if e.Load(t.eng.VAddr()) != vw {
			return t.bucket(key)
		}
		if t.cc.Read(e, t.eng.RvAddr(help)) != RvPending {
			return probe
		}
		nextkey := e.Load(t.ar.KeyAddr(nextp))
		if nextkey >= key || nextp == t.last || nextp == arena.NIL {
			return probe
		}
		probe = nextp
	}
	return t.bucket(key)
}

// SeedKeys bulk-loads the table at setup time (keys need not be sorted; they
// must be distinct and non-reserved).
func (t *Table) SeedKeys(keys []uint64) error {
	perBucket := make([][]uint64, t.k)
	for _, k := range keys {
		if k == KeyMin || k == KeyMax {
			return fmt.Errorf("multihash: seed key %#x is reserved", k)
		}
		b := int(k % uint64(t.k))
		perBucket[b] = append(perBucket[b], k)
	}
	for b, bk := range perBucket {
		slices.Sort(bk)
		prev := t.heads[b]
		for i, k := range bk {
			if i > 0 && bk[i-1] == k {
				return fmt.Errorf("multihash: duplicate seed key %d", k)
			}
			node := t.ar.Static()
			t.mem.Poke(t.ar.KeyAddr(node), k)
			t.mem.Poke(t.ar.ValAddr(node), k)
			t.cc.InitWord(t.mem, t.ar.NextAddr(node), uint64(t.last))
			t.cc.InitWord(t.mem, t.ar.NextAddr(prev), uint64(node))
			prev = node
		}
	}
	return nil
}

// Snapshot returns all keys in the table, sorted ascending (quiescent use).
// SnapshotRegion reports the address range whose words fully determine
// Snapshot, so per-write checkers can skip writes that cannot change it.
func (t *Table) SnapshotRegion() (lo, hi shmem.Addr) { return t.ar.NodeRegion() }

func (t *Table) Snapshot() []uint64 { return t.AppendSnapshot(nil) }

// AppendSnapshot appends the snapshot to dst and returns the extended
// slice, letting per-write checkers reuse one scratch buffer across a
// sweep instead of allocating a fresh slice per observed write.
func (t *Table) AppendSnapshot(dst []uint64) []uint64 {
	keys := dst
	base := len(dst)
	for _, h := range t.heads {
		r := arena.Ref(t.cc.Logical(t.mem.Peek(t.ar.NextAddr(h))))
		hops := 0
		for r != t.last && r != arena.NIL {
			if hops++; hops > t.ar.Capacity() {
				panic("multihash: bucket cycle detected")
			}
			keys = append(keys, t.mem.Peek(t.ar.KeyAddr(r)))
			r = arena.Ref(t.cc.Logical(t.mem.Peek(t.ar.NextAddr(r))))
		}
	}
	slices.Sort(keys[base:])
	return keys
}

func (t *Table) checkKey(key uint64) {
	if key == KeyMin || key == KeyMax {
		panic(fmt.Sprintf("multihash: key %#x is reserved for sentinels", key))
	}
	if key > t.cc.MaxLogical() {
		panic(fmt.Sprintf("multihash: key %#x exceeds CCAS logical capacity", key))
	}
}
