// Package unilist implements the paper's wait-free sorted linked list for
// priority-based uniprocessors (Section 2.2, Figure 5).
//
// The implementation is built on incremental helping (Figure 2): a single
// announce variable Ann serves the whole processor. Before announcing its
// own operation, a process first helps any previously-announced (necessarily
// lower-priority, necessarily preempted) operation to completion; therefore
// at most one operation is ever pending, each process helps at most one
// other process, and a list operation completes in Θ(2T) worst-case time
// where T is the cost of one list traversal.
//
// Scan work is never repeated: Ann.ptr records the last node successfully
// scanned, so a helper resumes a partially-complete scan at its checkpoint
// rather than from the head (Findpos, lines 24-31).
//
// Insertion uses the (pointer, bit) protocol of lines 38-46: the bit field
// of the predecessor's next pointer is raised before the splice so that a
// helper that completes the operation forces any stale helper's subsequent
// CAS to fail. Deletion safety (lines 47-49) relies on the arena allocator:
// a deleted node is freed by the process that requested the deletion, inside
// its Delete call, so on a priority uniprocessor no stale helper can observe
// the node recycled mid-help.
//
// Reconstruction notes (the PODC press copy is ambiguous in two places):
// inserting a key that is already present skips the splice and reports
// failure (Rv=1), mirroring the search case on line 50; deleting an absent
// key likewise reports failure. Both choices give Insert/Delete/Search the
// standard set semantics implied by the prose ("If the key is not already in
// the list, then the next field ...").
package unilist

import (
	"fmt"

	"repro/internal/arena"
	"repro/internal/shmem"
	"repro/internal/trace"
)

// Operation codes stored in Par[p].op.
const (
	opIns uint64 = iota + 1
	opDel
	opSch
)

// Return values stored in Rv[p].
const (
	// RvPending: the operation has not completed.
	RvPending uint64 = 0
	// RvFalse: the operation completed and reports false.
	RvFalse uint64 = 1
	// RvTrue: the operation completed and reports true.
	RvTrue uint64 = 2
)

// KeyMin and KeyMax bound the user key space; they are the sentinel keys of
// First and Last.
const (
	KeyMin = uint64(0)
	KeyMax = ^uint64(0)
)

// packPtr encodes a nodeptr (pointer plus one control bit) into a word.
func packPtr(r arena.Ref, bit uint64) uint64 { return uint64(r)<<1 | bit&1 }

// unpackPtr decodes a nodeptr word.
func unpackPtr(w uint64) (arena.Ref, uint64) { return arena.Ref(w >> 1), w & 1 }

// List is a wait-free sorted linked list shared by n processes on one
// priority-scheduled processor.
type List struct {
	mem shmem.Memory
	ar  *arena.Arena
	n   int

	first, last arena.Ref
	par         shmem.Rows // Par[p]: node, key, op (3 words per process)
	ann         shmem.Addr // Ann.ptr, Ann.pid (2 words)
	rv          shmem.Rows // Rv[0..N]
}

// Par field offsets.
const (
	parNode  = 0
	parKey   = 1
	parOp    = 2
	parWidth = 3
)

// New creates a list for n processes, allocating its sentinels from ar.
// The arena must not be frozen yet.
func New(m shmem.Memory, ar *arena.Arena, n int) (*List, error) {
	if n < 1 {
		return nil, fmt.Errorf("unilist: process count %d out of range", n)
	}
	par, err := shmem.NewRows(m, "Par", n, parWidth)
	if err != nil {
		return nil, fmt.Errorf("unilist: %w", err)
	}
	ann, err := m.Alloc("Ann", 2)
	if err != nil {
		return nil, fmt.Errorf("unilist: %w", err)
	}
	rv, err := shmem.NewRows(m, "Rv", n+1, 1)
	if err != nil {
		return nil, fmt.Errorf("unilist: %w", err)
	}
	l := &List{mem: m, ar: ar, n: n, par: par, ann: ann, rv: rv}
	l.first = ar.Static()
	l.last = ar.Static()
	// First = (-inf, 0, (&Last, 0)); Last = (+inf, 0, (NIL, 0)).
	m.Poke(ar.KeyAddr(l.first), KeyMin)
	m.Poke(ar.ValAddr(l.first), 0)
	m.Poke(ar.NextAddr(l.first), packPtr(l.last, 0))
	m.Poke(ar.KeyAddr(l.last), KeyMax)
	m.Poke(ar.ValAddr(l.last), 0)
	m.Poke(ar.NextAddr(l.last), packPtr(arena.NIL, 0))
	// Ann = (&First, N): no operation pending.
	m.Poke(l.annPtr(), uint64(l.first))
	m.Poke(l.annPid(), uint64(n))
	return l, nil
}

func (l *List) annPtr() shmem.Addr { return l.ann }
func (l *List) annPid() shmem.Addr { return l.ann + 1 }

func (l *List) parAddr(p int, field shmem.Addr) shmem.Addr {
	return l.par.Row(p) + field
}

// RvAddr returns the address of Rv[p], for checkers.
func (l *List) RvAddr(p int) shmem.Addr { return l.rv.Row(p) }

// AnnPidAddr returns the address of Ann.pid, for checkers.
func (l *List) AnnPidAddr() shmem.Addr { return l.annPid() }

// PeekPar returns process p's Par record (node, key, op) read directly from
// memory, for checkers.
func (l *List) PeekPar(p int) (node, key, op uint64) {
	return l.mem.Peek(l.parAddr(p, parNode)),
		l.mem.Peek(l.parAddr(p, parKey)),
		l.mem.Peek(l.parAddr(p, parOp))
}

// First returns the head sentinel, for checkers.
func (l *List) First() arena.Ref { return l.first }

// Last returns the tail sentinel, for checkers.
func (l *List) Last() arena.Ref { return l.last }

// Arena returns the node arena the list allocates from.
func (l *List) Arena() *arena.Arena { return l.ar }

// Insert adds key with the given value (lines 1-5 of Figure 5). It reports
// false if the key was already present. Keys must lie strictly between
// KeyMin and KeyMax.
func (l *List) Insert(e shmem.Ctx, key, val uint64) bool {
	l.checkKey(key)
	p := e.Slot()
	node, ok := l.ar.Alloc(e, p) // line 1: nodealloc()
	if !ok {
		panic(fmt.Sprintf("unilist: process %d exhausted its node pool", p))
	}
	// Line 2: *Par[p].node := (key, val, (NIL, 0)).
	e.Store(l.ar.KeyAddr(node), key)
	e.Store(l.ar.ValAddr(node), val)
	e.Store(l.ar.NextAddr(node), packPtr(arena.NIL, 0))
	e.Store(l.parAddr(p, parNode), uint64(node))
	e.Store(l.parAddr(p, parKey), key)  // line 3
	e.Store(l.parAddr(p, parOp), opIns) // line 4
	l.doOp(e)                           // line 5
	if e.Load(l.RvAddr(p)) == RvTrue {
		return true
	}
	// Duplicate key: the node was not linked; recycle it. This must
	// happen inside Insert, before relinquishing, so stale helpers can
	// never see the node re-initialized while they still hold it.
	l.ar.Free(e, p, node)
	return false
}

// Delete removes key (lines 6-10 of Figure 5), reporting whether it was
// present. The removed node is recycled into the calling process's pool.
func (l *List) Delete(e shmem.Ctx, key uint64) bool {
	l.checkKey(key)
	p := e.Slot()
	e.Store(l.parAddr(p, parKey), key)                // line 6
	e.Store(l.parAddr(p, parOp), opDel)               // line 7
	e.Store(l.parAddr(p, parNode), uint64(arena.NIL)) // line 8
	l.doOp(e)                                         // line 9
	node := arena.Ref(e.Load(l.parAddr(p, parNode)))
	if node != arena.NIL {
		l.ar.Free(e, p, node) // line 10: nodefree(Par[p].node)
	}
	return e.Load(l.RvAddr(p)) == RvTrue
}

// Search reports whether key is present (lines 11-14 of Figure 5).
func (l *List) Search(e shmem.Ctx, key uint64) bool {
	l.checkKey(key)
	p := e.Slot()
	e.Store(l.parAddr(p, parKey), key)   // line 11
	e.Store(l.parAddr(p, parOp), opSch)  // line 12
	l.doOp(e)                            // line 13
	return e.Load(l.RvAddr(p)) == RvTrue // line 14
}

// doOp is the Do_op procedure (lines 15-23): help any previously-announced
// operation, announce ours, execute it, and clear the announcement.
func (l *List) doOp(e shmem.Ctx) {
	p := e.Slot()
	if e.Traced() {
		e.Note("invoke", trace.I("p", int64(p)))
	}
	pid := int(e.Load(l.annPid()))                       // line 15
	if pid < l.n && e.Load(l.RvAddr(pid)) == RvPending { // line 16
		l.help(e, pid) // line 17
	}
	e.Store(l.RvAddr(p), RvPending)      // line 18
	e.Store(l.annPtr(), uint64(l.first)) // line 19
	e.Store(l.annPid(), uint64(p))       // line 20
	if e.Traced() {
		e.Note("announce", trace.I("p", int64(p)))
	}
	l.help(e, p)                         // line 21
	e.Store(l.annPtr(), uint64(l.first)) // line 22
	e.Store(l.annPid(), uint64(l.n))     // line 23
	if e.Traced() {
		e.Note("response", trace.I("p", int64(p)))
	}
}

// help executes (or helps) process pid's announced operation (the Help
// procedure, lines 32-51).
func (l *List) help(e shmem.Ctx, pid int) {
	if pid != e.Slot() {
		e.NoteHelp(pid)
	}
	key := e.Load(l.parAddr(pid, parKey)) // line 32
	curr := l.findpos(e, key, pid)        // line 33
	nextp := e.Load(l.ar.NextAddr(curr))  // line 34
	nextRef, _ := unpackPtr(nextp)
	nextkey := e.Load(l.ar.KeyAddr(nextRef))    // line 35
	nextnextp := e.Load(l.ar.NextAddr(nextRef)) // line 36
	nextnextRef, _ := unpackPtr(nextnextp)
	if e.Load(l.RvAddr(pid)) != RvPending { // line 37
		return
	}
	switch e.Load(l.parAddr(pid, parOp)) {
	case opIns:
		newNode := arena.Ref(e.Load(l.parAddr(pid, parNode))) // line 39
		if nextkey == key {
			// Reconstructed duplicate-key path (see package doc).
			e.Store(l.RvAddr(pid), RvFalse)
			return
		}
		// Line 41: point the new node at its successor. The expected
		// old value (NIL, 0) makes this a no-op for stale helpers:
		// once the node is linked or recycled its next is non-NIL.
		e.CAS(l.ar.NextAddr(newNode), packPtr(arena.NIL, 0), packPtr(nextRef, 0))
		// Line 42: raise the bit on the predecessor's next field
		// without changing the pointer.
		e.CAS(l.ar.NextAddr(curr), nextp, packPtr(nextRef, 1))
		// Line 43: nextp.bit := 1 (local).
		nextp = packPtr(nextRef, 1)
		if e.Load(l.RvAddr(pid)) == RvPending { // line 44
			if e.CAS(l.ar.NextAddr(curr), nextp, packPtr(newNode, 0)) { // line 45
				if e.Traced() {
					e.Note("splice", trace.I("p", int64(pid)), trace.I("key", int64(key)))
				}
			}
		} else {
			e.CAS(l.ar.NextAddr(curr), nextp, packPtr(nextRef, 0)) // line 46
		}
	case opDel:
		if nextkey == key { // line 47
			if e.CAS(l.ar.NextAddr(curr), nextp, packPtr(nextnextRef, 0)) { // line 48
				if e.Traced() {
					e.Note("unsplice", trace.I("p", int64(pid)), trace.I("key", int64(key)))
				}
			}
			e.Store(l.parAddr(pid, parNode), uint64(nextRef)) // line 49
		} else {
			// Reconstructed absent-key path (see package doc).
			e.Store(l.RvAddr(pid), RvFalse)
			return
		}
	case opSch:
		if nextkey != key { // line 50
			e.Store(l.RvAddr(pid), RvFalse)
			return
		}
	}
	e.Store(l.RvAddr(pid), RvTrue) // line 51
}

// findpos performs (or resumes) the scan for process pid's operation,
// returning the predecessor of the first node whose key is at least key
// (the Findpos procedure, lines 24-31). The scan checkpoint lives in
// Ann.ptr so helpers never rescan completed prefixes.
func (l *List) findpos(e shmem.Ctx, key uint64, pid int) arena.Ref {
	for e.Load(l.RvAddr(pid)) == RvPending { // line 24
		curr := arena.Ref(e.Load(l.annPtr())) // line 25
		nextp := e.Load(l.ar.NextAddr(curr))  // line 26
		nextRef, _ := unpackPtr(nextp)
		nextkey := e.Load(l.ar.KeyAddr(nextRef))                                       // line 27
		if e.Load(l.RvAddr(pid)) != RvPending || nextkey >= key || nextRef == l.last { // line 28
			return curr // line 29
		}
		e.Store(l.annPtr(), uint64(nextRef)) // line 30
	}
	return l.first // line 31
}

// SeedAscending bulk-loads the list with the given strictly ascending keys
// at setup time (before the arena is frozen and the run starts), using
// static arena nodes. Values are set equal to the keys. It is how the
// benchmark harness builds its initial lists of 200-2,000 elements.
func (l *List) SeedAscending(keys []uint64) error {
	prev := l.first
	for i, k := range keys {
		if k == KeyMin || k == KeyMax {
			return fmt.Errorf("unilist: seed key %#x is reserved", k)
		}
		if i > 0 && keys[i-1] >= k {
			return fmt.Errorf("unilist: seed keys not strictly ascending at %d", i)
		}
		node := l.ar.Static()
		l.mem.Poke(l.ar.KeyAddr(node), k)
		l.mem.Poke(l.ar.ValAddr(node), k)
		l.mem.Poke(l.ar.NextAddr(node), packPtr(l.last, 0))
		l.mem.Poke(l.ar.NextAddr(prev), packPtr(node, 0))
		prev = node
	}
	return nil
}

// Snapshot returns the keys currently in the list, in order. It reads
// memory directly (no simulated time) and is meaningful only at quiescence;
// it is for tests and checkers.
// SnapshotRegion reports the address range whose words fully determine
// Snapshot, so per-write checkers can skip writes that cannot change it.
func (l *List) SnapshotRegion() (lo, hi shmem.Addr) { return l.ar.NodeRegion() }

func (l *List) Snapshot() []uint64 { return l.AppendSnapshot(nil) }

// AppendSnapshot appends the snapshot to dst and returns the extended
// slice, letting per-write checkers reuse one scratch buffer across a
// sweep instead of allocating a fresh slice per observed write.
func (l *List) AppendSnapshot(dst []uint64) []uint64 {
	keys := dst
	base := len(dst)
	r, _ := unpackPtr(l.mem.Peek(l.ar.NextAddr(l.first)))
	for r != l.last && r != arena.NIL {
		keys = append(keys, l.mem.Peek(l.ar.KeyAddr(r)))
		if len(keys)-base > l.ar.Capacity() {
			panic("unilist: list cycle detected")
		}
		r, _ = unpackPtr(l.mem.Peek(l.ar.NextAddr(r)))
	}
	return keys
}

func (l *List) checkKey(key uint64) {
	if key == KeyMin || key == KeyMax {
		panic(fmt.Sprintf("unilist: key %#x is reserved for sentinels", key))
	}
}
