// Package multiqueue implements a wait-free FIFO queue for priority-based
// multiprocessors — the queue instance of the paper's Section 4 claim,
// built exactly like the multiprocessor list (Figure 7): per-processor
// announce records, cyclic or priority helping, and version-guarded CCAS
// for every structural update.
//
// Enqueue is the list's insert protocol at the tail position, but it finds
// that position in O(1): one shared word, tail, names the node whose next
// is the tail sentinel (first when the queue is empty) at every round
// boundary. An enqueue splices after tail and then swings tail to the new
// node; a dequeue that unsplices the tail node swings tail back to first
// before it reports. Every write to tail is a version-guarded CCAS, so no
// announce-time write exists and a round's helpers all agree on it.
// Dequeue fixes its victim in Par[p].node with a version-guarded CCAS
// before unsplicing, exactly as the list's delete records its node on
// line 53. All the round-stability arguments of the list transfer: an
// operation completes inside the round that decides it, so the "already
// done" discriminators (tail for enqueues, Par[p].node for dequeues) are
// safe.
package multiqueue

import (
	"fmt"

	"repro/internal/arena"
	"repro/internal/helping"
	"repro/internal/prim"
	"repro/internal/shmem"
	"repro/internal/trace"
)

// Operation codes stored in Par[p].op.
const (
	opEnq uint64 = iota + 1
	opDeq
)

// Rv values.
const (
	// RvPending: the operation has not completed.
	RvPending uint64 = 0
	// RvFalse: the operation completed and reports false (empty dequeue).
	RvFalse uint64 = 1
	// RvTrue: the operation completed and reports true.
	RvTrue uint64 = 2
)

// Done is the completion predicate.
func Done(rv uint64) bool { return rv != RvPending }

// Config configures the queue.
type Config struct {
	// Processors is P; Procs is N.
	Processors, Procs int
	// CC selects the CCAS implementation; unset (the zero prim.Impl)
	// defaults to prim.Native().
	CC prim.Impl
	// Mode selects cyclic or priority helping; defaults to Cyclic.
	Mode helping.Mode
	// OneRound enables the single-traversal optimization of [1].
	OneRound bool
}

// Queue is a wait-free FIFO queue.
type Queue struct {
	mem shmem.Memory
	ar  *arena.Arena
	cc  prim.Impl
	eng *helping.Engine
	n   int

	first, last arena.Ref
	par         shmem.Rows // Par[p]: node, op (N+1 rows)
	tail        shmem.Addr // the node whose next is last, at round boundaries
}

const (
	parNode  = 0
	parOp    = 1
	parWidth = 2
)

// New creates a queue; the arena must not be frozen.
func New(m shmem.Memory, ar *arena.Arena, cfg Config) (*Queue, error) {
	if cfg.Procs < 1 {
		return nil, fmt.Errorf("multiqueue: process count %d out of range", cfg.Procs)
	}
	if cfg.CC.IsZero() {
		cfg.CC = prim.Native()
	}
	if cfg.Mode == 0 {
		cfg.Mode = helping.Cyclic
	}
	par, err := shmem.NewRows(m, "QPar", cfg.Procs+1, parWidth)
	if err != nil {
		return nil, fmt.Errorf("multiqueue: %w", err)
	}
	tail, err := m.Alloc("QTail", 1)
	if err != nil {
		return nil, fmt.Errorf("multiqueue: %w", err)
	}
	q := &Queue{mem: m, ar: ar, cc: cfg.CC, n: cfg.Procs, par: par, tail: tail}
	ar.SetNextImpl(cfg.CC)
	q.first = ar.Static()
	q.last = ar.Static()
	cfg.CC.InitWord(m, ar.NextAddr(q.first), uint64(q.last))
	cfg.CC.InitWord(m, ar.NextAddr(q.last), uint64(arena.NIL))
	cfg.CC.InitWord(m, tail, uint64(q.first))
	eng, err := helping.New(m, helping.Config{
		Processors: cfg.Processors,
		Procs:      cfg.Procs,
		Mode:       cfg.Mode,
		CC:         cfg.CC,
		Done:       Done,
		Help:       q.help,
		OneRound:   cfg.OneRound,
	}, RvTrue)
	if err != nil {
		return nil, err
	}
	q.eng = eng
	return q, nil
}

func (q *Queue) parAddr(p int, f shmem.Addr) shmem.Addr {
	return q.par.Row(p) + f
}

// Engine exposes the helping engine for checkers and benches.
func (q *Queue) Engine() *helping.Engine { return q.eng }

// Enqueue appends val to the queue.
func (q *Queue) Enqueue(e shmem.Ctx, val uint64) {
	p := e.Slot()
	node, ok := q.ar.Alloc(e, p)
	if !ok {
		panic(fmt.Sprintf("multiqueue: process %d exhausted its node pool", p))
	}
	e.Store(q.ar.ValAddr(node), val)
	q.cc.Write(e, q.ar.NextAddr(node), uint64(arena.NIL))
	q.cc.Write(e, q.parAddr(p, parNode), uint64(node))
	e.Store(q.parAddr(p, parOp), opEnq)
	q.cc.Write(e, q.eng.RvAddr(p), RvPending)
	q.eng.DoOp(e)
}

// Dequeue removes and returns the oldest value; ok is false when the queue
// was empty.
func (q *Queue) Dequeue(e shmem.Ctx) (val uint64, ok bool) {
	p := e.Slot()
	e.Store(q.parAddr(p, parOp), opDeq)
	q.cc.Write(e, q.parAddr(p, parNode), uint64(arena.NIL))
	q.cc.Write(e, q.eng.RvAddr(p), RvPending)
	q.eng.DoOp(e)
	node := arena.Ref(q.cc.Read(e, q.parAddr(p, parNode)))
	if node == arena.NIL {
		return 0, false
	}
	val = e.Load(q.ar.ValAddr(node))
	q.ar.Free(e, p, node)
	return val, true
}

// help drives the operation announced on ver.Target.
func (q *Queue) help(e shmem.Ctx, ver helping.Version) {
	vw := helping.PackVersion(ver)
	pid := q.eng.AnnPid(e, ver.Target)
	switch e.Load(q.parAddr(pid, parOp)) {
	case opEnq:
		q.helpEnq(e, vw, pid)
	case opDeq:
		q.helpDeq(e, vw, pid)
	default:
		// Guard row or stale announce; all CCASes would fail anyway.
	}
}

// helpEnq splices Par[pid].node after the tail node and swings tail to it.
// Each step is a version-guarded CCAS that a late helper of the same round
// finds already done, so every helper runs them all in order.
func (q *Queue) helpEnq(e shmem.Ctx, vw uint64, pid int) {
	curr := arena.Ref(q.cc.Read(e, q.tail))
	nextp := arena.Ref(q.cc.Read(e, q.ar.NextAddr(curr)))
	if e.Load(q.eng.VAddr()) != vw {
		return
	}
	if q.cc.Read(e, q.eng.RvAddr(pid)) != RvPending {
		return
	}
	newNode := arena.Ref(q.cc.Read(e, q.parAddr(pid, parNode)))
	// curr == newNode: tail already names the operation's own node, so
	// the splice and the swing are done this round. Fall through to Rv.
	if curr != newNode {
		if nextp == q.last {
			// Splice before the tail sentinel (the list's lines 50-51).
			q.cc.Exec(e, q.eng.VAddr(), vw, q.ar.NextAddr(newNode), uint64(arena.NIL), uint64(q.last))
			if q.cc.Exec(e, q.eng.VAddr(), vw, q.ar.NextAddr(curr), uint64(q.last), uint64(newNode)) {
				if e.Traced() {
					e.Note("enqueue", trace.I("p", int64(pid)), trace.I("node", int64(newNode)))
				}
			}
			nextp = newNode
		}
		// A late helper that finds the splice done must still swing
		// tail: the splicer may have been preempted before it could.
		if nextp == newNode {
			q.cc.Exec(e, q.eng.VAddr(), vw, q.tail, uint64(curr), uint64(newNode))
		}
	}
	q.cc.Exec(e, q.eng.VAddr(), vw, q.eng.RvAddr(pid), RvPending, RvTrue)
}

func (q *Queue) helpDeq(e shmem.Ctx, vw uint64, pid int) {
	victim := arena.Ref(q.cc.Read(e, q.parAddr(pid, parNode)))
	if victim == arena.NIL {
		head := arena.Ref(q.cc.Read(e, q.ar.NextAddr(q.first)))
		if q.cc.Read(e, q.eng.RvAddr(pid)) != RvPending {
			return
		}
		if head == q.last {
			q.cc.Exec(e, q.eng.VAddr(), vw, q.eng.RvAddr(pid), RvPending, RvFalse)
			return
		}
		// Fix the victim (line 53 of Figure 7).
		q.cc.Exec(e, q.eng.VAddr(), vw, q.parAddr(pid, parNode), uint64(arena.NIL), uint64(head))
		victim = arena.Ref(q.cc.Read(e, q.parAddr(pid, parNode)))
		if victim == arena.NIL {
			return // version moved; a newer round will finish the job
		}
	}
	succ := arena.Ref(q.cc.Read(e, q.ar.NextAddr(victim)))
	if q.cc.Read(e, q.eng.RvAddr(pid)) != RvPending {
		return
	}
	if q.cc.Exec(e, q.eng.VAddr(), vw, q.ar.NextAddr(q.first), uint64(victim), uint64(succ)) {
		if e.Traced() {
			e.Note("dequeue", trace.I("p", int64(pid)), trace.I("node", int64(victim)))
		}
	}
	// The victim was the tail node: swing tail back to first before Rv
	// reports, so the node the caller frees is never the tail.
	if succ == q.last {
		q.cc.Exec(e, q.eng.VAddr(), vw, q.tail, uint64(victim), uint64(q.first))
	}
	q.cc.Exec(e, q.eng.VAddr(), vw, q.eng.RvAddr(pid), RvPending, RvTrue)
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
	r := arena.Ref(q.cc.Logical(q.mem.Peek(q.ar.NextAddr(q.first))))
	for r != q.last && r != arena.NIL {
		vals = append(vals, q.mem.Peek(q.ar.ValAddr(r)))
		if len(vals)-base > q.ar.Capacity() {
			panic("multiqueue: queue cycle detected")
		}
		r = arena.Ref(q.cc.Logical(q.mem.Peek(q.ar.NextAddr(r))))
	}
	return vals
}
