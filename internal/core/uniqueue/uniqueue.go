// Package uniqueue implements a wait-free FIFO queue for priority-based
// uniprocessors, following the paper's Section 4 remark that "other 'linear'
// data structures, like queues, stacks, and hash tables, are just as
// straightforward to implement as linked lists".
//
// The implementation transfers the Figure 5 machinery directly:
//
//   - incremental helping (internal/inchelp): one announce variable, at
//     most one pending operation, each process helps at most one other;
//   - enqueue is the list's insert protocol at the tail position — the
//     (pointer, bit) splice on the predecessor's next field, with the same
//     stale-helper safety arguments (a recycled node's next is never NIL;
//     a spurious bit set by a stale helper is absorbed or cleared);
//   - dequeue removes the node after the head sentinel. Idempotence across
//     helpers cannot key on a node's key (dequeue targets a position, not
//     a key), so the victim is fixed first with a CAS on Par[p].node from
//     NIL — the same discipline as line 53 of the multiprocessor list —
//     and every helper unsplices that recorded victim;
//   - the tail scan checkpoints its progress in a shared hint word (the
//     Ann.ptr pattern), reset at announce, so helpers never rescan a
//     completed prefix. An enqueue therefore costs Θ(T) like a list
//     operation, and Θ(2T) with helping.
package uniqueue

import (
	"fmt"

	"repro/internal/arena"
	"repro/internal/inchelp"
	"repro/internal/shmem"
	"repro/internal/trace"
)

// Operation codes stored in Par[p].op.
const (
	opEnq uint64 = iota + 1
	opDeq
)

// packPtr encodes a (pointer, bit) next field.
func packPtr(r arena.Ref, bit uint64) uint64 { return uint64(r)<<1 | bit&1 }

// unpackPtr decodes a next field.
func unpackPtr(w uint64) (arena.Ref, uint64) { return arena.Ref(w >> 1), w & 1 }

// Queue is a wait-free FIFO queue for one priority-scheduled processor.
type Queue struct {
	mem shmem.Memory
	ar  *arena.Arena
	eng *inchelp.Engine
	n   int

	first, last arena.Ref
	par         shmem.Rows // Par[p]: node, op (2 words per process)
	hint        shmem.Addr // tail-scan checkpoint (the Ann.ptr pattern)
}

const (
	parNode  = 0
	parOp    = 1
	parWidth = 2
)

// New creates a queue for n process slots; the arena must not be frozen.
func New(m shmem.Memory, ar *arena.Arena, n int) (*Queue, error) {
	if n < 1 {
		return nil, fmt.Errorf("uniqueue: process count %d out of range", n)
	}
	par, err := shmem.NewRows(m, "QPar", n, parWidth)
	if err != nil {
		return nil, fmt.Errorf("uniqueue: %w", err)
	}
	hint, err := m.Alloc("QHint", 1)
	if err != nil {
		return nil, fmt.Errorf("uniqueue: %w", err)
	}
	q := &Queue{mem: m, ar: ar, n: n, par: par, hint: hint}
	q.first = ar.Static()
	q.last = ar.Static()
	m.Poke(ar.NextAddr(q.first), packPtr(q.last, 0))
	m.Poke(ar.NextAddr(q.last), packPtr(arena.NIL, 0))
	m.Poke(hint, uint64(q.first))
	eng, err := inchelp.New(m, inchelp.Config{
		Procs: n,
		Help:  q.help,
		OnAnnounce: func(e shmem.Ctx) {
			e.Store(q.hint, uint64(q.first))
		},
	})
	if err != nil {
		return nil, err
	}
	q.eng = eng
	return q, nil
}

// Engine exposes the helping engine, for checkers.
func (q *Queue) Engine() *inchelp.Engine { return q.eng }

// PeekPar returns process p's Par record (node, op), for checkers.
func (q *Queue) PeekPar(p int) (node, op uint64) {
	return q.mem.Peek(q.parAddr(p, parNode)), q.mem.Peek(q.parAddr(p, parOp))
}

func (q *Queue) parAddr(p int, f shmem.Addr) shmem.Addr {
	return q.par.Row(p) + f
}

// Enqueue appends val to the queue.
func (q *Queue) Enqueue(e shmem.Ctx, val uint64) {
	p := e.Slot()
	node, ok := q.ar.Alloc(e, p)
	if !ok {
		panic(fmt.Sprintf("uniqueue: process %d exhausted its node pool", p))
	}
	e.Store(q.ar.ValAddr(node), val)
	e.Store(q.ar.NextAddr(node), packPtr(arena.NIL, 0))
	e.Store(q.parAddr(p, parNode), uint64(node))
	e.Store(q.parAddr(p, parOp), opEnq)
	q.eng.DoOp(e)
}

// Dequeue removes and returns the oldest value; ok is false when the queue
// was empty. The dequeued node is recycled into the caller's pool.
func (q *Queue) Dequeue(e shmem.Ctx) (val uint64, ok bool) {
	p := e.Slot()
	e.Store(q.parAddr(p, parNode), uint64(arena.NIL))
	e.Store(q.parAddr(p, parOp), opDeq)
	q.eng.DoOp(e)
	node := arena.Ref(e.Load(q.parAddr(p, parNode)))
	if node == arena.NIL {
		return 0, false // queue was empty
	}
	val = e.Load(q.ar.ValAddr(node))
	q.ar.Free(e, p, node)
	return val, true
}

// help executes (or helps) process pid's announced operation.
func (q *Queue) help(e shmem.Ctx, pid int) {
	switch e.Load(q.parAddr(pid, parOp)) {
	case opEnq:
		q.helpEnq(e, pid)
	case opDeq:
		q.helpDeq(e, pid)
	}
}

// helpEnq is the Figure 5 insert protocol at the tail position.
func (q *Queue) helpEnq(e shmem.Ctx, pid int) {
	curr := q.findtail(e, pid)
	nextp := e.Load(q.ar.NextAddr(curr))
	nextRef, _ := unpackPtr(nextp)
	if q.eng.Rv(e, pid) != inchelp.RvPending {
		return
	}
	newNode := arena.Ref(e.Load(q.parAddr(pid, parNode)))
	if curr == newNode {
		// The scan landed on the operation's own node: the splice is
		// already done (this is the queue's analog of the list's
		// "nextkey == key means our own node" case — without the
		// guard a late helper would splice the node after itself).
		q.eng.SetRv(e, pid, inchelp.RvTrue)
		return
	}
	// Point the new node at the tail sentinel; no-op for stale helpers
	// (a linked or recycled node's next is never NIL).
	e.CAS(q.ar.NextAddr(newNode), packPtr(arena.NIL, 0), packPtr(q.last, 0))
	// Raise the bit on the predecessor, then swing in the new node.
	e.CAS(q.ar.NextAddr(curr), nextp, packPtr(nextRef, 1))
	nextp = packPtr(nextRef, 1)
	if q.eng.Rv(e, pid) == inchelp.RvPending {
		if e.CAS(q.ar.NextAddr(curr), nextp, packPtr(newNode, 0)) {
			if e.Traced() {
				e.Note("enqueue", trace.I("p", int64(pid)), trace.I("node", int64(newNode)))
			}
		}
	} else {
		e.CAS(q.ar.NextAddr(curr), nextp, packPtr(nextRef, 0))
	}
	q.eng.SetRv(e, pid, inchelp.RvTrue)
}

// helpDeq removes the node after the head sentinel, fixing the victim in
// Par[pid].node before unsplicing so helpers agree on a single node.
func (q *Queue) helpDeq(e shmem.Ctx, pid int) {
	victim := arena.Ref(e.Load(q.parAddr(pid, parNode)))
	if victim == arena.NIL {
		headp := e.Load(q.ar.NextAddr(q.first))
		head, _ := unpackPtr(headp)
		if q.eng.Rv(e, pid) != inchelp.RvPending {
			return
		}
		if head == q.last {
			q.eng.SetRv(e, pid, inchelp.RvFalse) // empty
			return
		}
		// Fix the victim (first writer wins; the CAS guards against a
		// stale helper of a previous operation re-fixing).
		e.CAS(q.parAddr(pid, parNode), uint64(arena.NIL), uint64(head))
		victim = arena.Ref(e.Load(q.parAddr(pid, parNode)))
	}
	// Unsplice using the raw head pointer (bit included, exactly as
	// Figure 5's delete uses its raw nextp): a stale enqueue helper may
	// have transiently raised the bit, and under the priority model its
	// set/clear pair is net-zero unless one of this operation's helpers
	// completed the unsplice in between — in which case our CAS fails
	// because the work is already done.
	raw := e.Load(q.ar.NextAddr(q.first))
	ptr, _ := unpackPtr(raw)
	succp := e.Load(q.ar.NextAddr(victim))
	succ, _ := unpackPtr(succp)
	if q.eng.Rv(e, pid) != inchelp.RvPending {
		return
	}
	if ptr == victim {
		if e.CAS(q.ar.NextAddr(q.first), raw, packPtr(succ, 0)) {
			if e.Traced() {
				e.Note("dequeue", trace.I("p", int64(pid)), trace.I("node", int64(victim)))
			}
		}
	}
	q.eng.SetRv(e, pid, inchelp.RvTrue)
}

// findtail scans for the node whose successor is the tail sentinel,
// checkpointing progress in the shared hint.
func (q *Queue) findtail(e shmem.Ctx, pid int) arena.Ref {
	for q.eng.Rv(e, pid) == inchelp.RvPending {
		curr := arena.Ref(e.Load(q.hint))
		nextp := e.Load(q.ar.NextAddr(curr))
		nextRef, _ := unpackPtr(nextp)
		if q.eng.Rv(e, pid) != inchelp.RvPending || nextRef == q.last || nextRef == arena.NIL {
			return curr
		}
		e.Store(q.hint, uint64(nextRef))
	}
	return q.first
}

// Snapshot returns the queued values in FIFO order (quiescent use only).
// SnapshotRegion reports the address range whose words fully determine
// Snapshot, so per-write checkers can skip writes that cannot change it.
func (q *Queue) SnapshotRegion() (lo, hi shmem.Addr) { return q.ar.NodeRegion() }

func (q *Queue) Snapshot() []uint64 { return q.AppendSnapshot(nil) }

// AppendSnapshot appends the snapshot to dst and returns the extended
// slice, letting per-write checkers reuse one scratch buffer across a
// sweep instead of allocating a fresh slice per observed write.
func (q *Queue) AppendSnapshot(dst []uint64) []uint64 {
	vals := dst
	base := len(dst)
	r, _ := unpackPtr(q.mem.Peek(q.ar.NextAddr(q.first)))
	for r != q.last && r != arena.NIL {
		vals = append(vals, q.mem.Peek(q.ar.ValAddr(r)))
		if len(vals)-base > q.ar.Capacity() {
			panic("uniqueue: queue cycle detected")
		}
		r, _ = unpackPtr(q.mem.Peek(q.ar.NextAddr(r)))
	}
	return vals
}
