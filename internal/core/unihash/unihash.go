// Package unihash implements a wait-free hash table for priority-based
// uniprocessors — the hash-table instance of the paper's Section 4 claim,
// built from the Figure 5 list machinery over K bucket chains.
//
// Each bucket is a sorted chain from its own head sentinel to one shared
// tail sentinel, operated with the Figure 5 protocol: incremental helping,
// the (pointer, bit) insert splice, and key-guarded idempotent deletes.
// Operation cost is Θ(T/K) expected, Θ(2·T/K) helped.
//
// Unlike the list, the scan uses no shared checkpoint: the list's Ann.ptr
// reset is only sound because its target is a constant (the global head) —
// the reset and the pid publish are separate writes, and a preemption
// between them lets an intervening process on the processor leave the
// checkpoint pointing into *its* operation's bucket. Buckets are short, so
// each helper scans privately from the bucket head instead.
package unihash

import (
	"fmt"
	"slices"

	"repro/internal/arena"
	"repro/internal/inchelp"
	"repro/internal/shmem"
	"repro/internal/trace"
)

// Operation codes stored in Par[p].op.
const (
	opIns uint64 = iota + 1
	opDel
	opSch
)

// KeyMin and KeyMax are reserved sentinel keys.
const (
	KeyMin = uint64(0)
	KeyMax = ^uint64(0)
)

func packPtr(r arena.Ref, bit uint64) uint64 { return uint64(r)<<1 | bit&1 }
func unpackPtr(w uint64) (arena.Ref, uint64) { return arena.Ref(w >> 1), w & 1 }

// Table is a wait-free hash table for one priority-scheduled processor.
type Table struct {
	mem shmem.Memory
	ar  *arena.Arena
	eng *inchelp.Engine
	n   int
	k   int

	heads []arena.Ref
	last  arena.Ref
	par   shmem.Rows // Par[p]: node, key, op
}

const (
	parNode  = 0
	parKey   = 1
	parOp    = 2
	parWidth = 3
)

// New creates a table with k buckets for n process slots; the arena must
// not be frozen.
func New(m shmem.Memory, ar *arena.Arena, n, k int) (*Table, error) {
	if n < 1 {
		return nil, fmt.Errorf("unihash: process count %d out of range", n)
	}
	if k < 1 {
		return nil, fmt.Errorf("unihash: bucket count %d out of range", k)
	}
	par, err := shmem.NewRows(m, "HPar", n, parWidth)
	if err != nil {
		return nil, fmt.Errorf("unihash: %w", err)
	}
	t := &Table{mem: m, ar: ar, n: n, k: k, par: par}
	t.last = ar.Static()
	m.Poke(ar.KeyAddr(t.last), KeyMax)
	m.Poke(ar.NextAddr(t.last), packPtr(arena.NIL, 0))
	t.heads = make([]arena.Ref, k)
	for b := range t.heads {
		h := ar.Static()
		t.heads[b] = h
		m.Poke(ar.KeyAddr(h), KeyMin)
		m.Poke(ar.NextAddr(h), packPtr(t.last, 0))
	}
	eng, err := inchelp.New(m, inchelp.Config{
		Procs: n,
		Help:  t.help,
	})
	if err != nil {
		return nil, err
	}
	t.eng = eng
	return t, nil
}

func (t *Table) bucket(key uint64) arena.Ref { return t.heads[int(key%uint64(t.k))] }

func (t *Table) parAddr(p int, f shmem.Addr) shmem.Addr {
	return t.par.Row(p) + f
}

// Engine exposes the helping engine, for checkers.
func (t *Table) Engine() *inchelp.Engine { return t.eng }

// PeekPar returns process p's Par record, for checkers.
func (t *Table) PeekPar(p int) (node, key, op uint64) {
	return t.mem.Peek(t.parAddr(p, parNode)),
		t.mem.Peek(t.parAddr(p, parKey)),
		t.mem.Peek(t.parAddr(p, parOp))
}

// Insert adds key, reporting false on duplicate.
func (t *Table) Insert(e shmem.Ctx, key, val uint64) bool {
	t.checkKey(key)
	p := e.Slot()
	node, ok := t.ar.Alloc(e, p)
	if !ok {
		panic(fmt.Sprintf("unihash: process %d exhausted its node pool", p))
	}
	e.Store(t.ar.KeyAddr(node), key)
	e.Store(t.ar.ValAddr(node), val)
	e.Store(t.ar.NextAddr(node), packPtr(arena.NIL, 0))
	e.Store(t.parAddr(p, parNode), uint64(node))
	e.Store(t.parAddr(p, parKey), key)
	e.Store(t.parAddr(p, parOp), opIns)
	t.eng.DoOp(e)
	if t.eng.Rv(e, p) == inchelp.RvTrue {
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
	e.Store(t.parAddr(p, parNode), uint64(arena.NIL))
	t.eng.DoOp(e)
	node := arena.Ref(e.Load(t.parAddr(p, parNode)))
	if node != arena.NIL {
		t.ar.Free(e, p, node)
	}
	return t.eng.Rv(e, p) == inchelp.RvTrue
}

// Search reports whether key is present.
func (t *Table) Search(e shmem.Ctx, key uint64) bool {
	t.checkKey(key)
	p := e.Slot()
	e.Store(t.parAddr(p, parKey), key)
	e.Store(t.parAddr(p, parOp), opSch)
	t.eng.DoOp(e)
	return t.eng.Rv(e, p) == inchelp.RvTrue
}

// help mirrors the Figure 5 Help procedure over the operation's bucket.
func (t *Table) help(e shmem.Ctx, pid int) {
	key := e.Load(t.parAddr(pid, parKey))
	curr := t.findpos(e, key, pid)
	nextp := e.Load(t.ar.NextAddr(curr))
	nextRef, _ := unpackPtr(nextp)
	nextkey := e.Load(t.ar.KeyAddr(nextRef))
	nextnextp := e.Load(t.ar.NextAddr(nextRef))
	nextnextRef, _ := unpackPtr(nextnextp)
	if t.eng.Rv(e, pid) != inchelp.RvPending {
		return
	}
	switch e.Load(t.parAddr(pid, parOp)) {
	case opIns:
		newNode := arena.Ref(e.Load(t.parAddr(pid, parNode)))
		if nextkey == key {
			t.eng.SetRv(e, pid, inchelp.RvFalse) // duplicate
			return
		}
		e.CAS(t.ar.NextAddr(newNode), packPtr(arena.NIL, 0), packPtr(nextRef, 0))
		e.CAS(t.ar.NextAddr(curr), nextp, packPtr(nextRef, 1))
		nextp = packPtr(nextRef, 1)
		if t.eng.Rv(e, pid) == inchelp.RvPending {
			if e.CAS(t.ar.NextAddr(curr), nextp, packPtr(newNode, 0)) {
				if e.Traced() {
					e.Note("hsplice", trace.I("p", int64(pid)), trace.I("key", int64(key)))
				}
			}
		} else {
			e.CAS(t.ar.NextAddr(curr), nextp, packPtr(nextRef, 0))
		}
	case opDel:
		if nextkey != key {
			t.eng.SetRv(e, pid, inchelp.RvFalse) // absent
			return
		}
		if e.CAS(t.ar.NextAddr(curr), nextp, packPtr(nextnextRef, 0)) {
			if e.Traced() {
				e.Note("hunsplice", trace.I("p", int64(pid)), trace.I("key", int64(key)))
			}
		}
		e.Store(t.parAddr(pid, parNode), uint64(nextRef))
	case opSch:
		if nextkey != key {
			t.eng.SetRv(e, pid, inchelp.RvFalse)
			return
		}
	}
	t.eng.SetRv(e, pid, inchelp.RvTrue)
}

// findpos scans the operation's bucket privately from its head, returning
// the predecessor of the first node with key >= key.
func (t *Table) findpos(e shmem.Ctx, key uint64, pid int) arena.Ref {
	probe := t.bucket(key)
	for hops := 0; hops <= t.ar.Capacity(); hops++ {
		if t.eng.Rv(e, pid) != inchelp.RvPending {
			return probe
		}
		nextp := e.Load(t.ar.NextAddr(probe))
		nextRef, _ := unpackPtr(nextp)
		nextkey := e.Load(t.ar.KeyAddr(nextRef))
		if nextkey >= key || nextRef == t.last || nextRef == arena.NIL {
			return probe
		}
		probe = nextRef
	}
	return t.bucket(key)
}

// SeedKeys bulk-loads the table at setup time.
func (t *Table) SeedKeys(keys []uint64) error {
	perBucket := make([][]uint64, t.k)
	for _, k := range keys {
		if k == KeyMin || k == KeyMax {
			return fmt.Errorf("unihash: seed key %#x is reserved", k)
		}
		b := int(k % uint64(t.k))
		perBucket[b] = append(perBucket[b], k)
	}
	for b, bk := range perBucket {
		slices.Sort(bk)
		prev := t.heads[b]
		for i, k := range bk {
			if i > 0 && bk[i-1] == k {
				return fmt.Errorf("unihash: duplicate seed key %d", k)
			}
			node := t.ar.Static()
			t.mem.Poke(t.ar.KeyAddr(node), k)
			t.mem.Poke(t.ar.ValAddr(node), k)
			t.mem.Poke(t.ar.NextAddr(node), packPtr(t.last, 0))
			t.mem.Poke(t.ar.NextAddr(prev), packPtr(node, 0))
			prev = node
		}
	}
	return nil
}

// Snapshot returns all keys, sorted ascending (quiescent use only).
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
		r, _ := unpackPtr(t.mem.Peek(t.ar.NextAddr(h)))
		hops := 0
		for r != t.last && r != arena.NIL {
			if hops++; hops > t.ar.Capacity() {
				panic("unihash: bucket cycle detected")
			}
			keys = append(keys, t.mem.Peek(t.ar.KeyAddr(r)))
			r, _ = unpackPtr(t.mem.Peek(t.ar.NextAddr(r)))
		}
	}
	slices.Sort(keys[base:])
	return keys
}

func (t *Table) checkKey(key uint64) {
	if key == KeyMin || key == KeyMax {
		panic(fmt.Sprintf("unihash: key %#x is reserved for sentinels", key))
	}
}
