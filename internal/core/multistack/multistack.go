// Package multistack implements a wait-free LIFO stack for priority-based
// multiprocessors, completing the Section 4 set (queue, stack, hash table)
// on the cyclic/priority helping engine.
//
// Both operations work at the head sentinel: push is the Figure 7 insert
// protocol at the head position (set the new node's next from NIL, then a
// version-guarded CCAS swings the head), pop fixes its victim in
// Par[p].node before unsplicing (the line-53 discipline). No scan and no
// checkpoint are needed, so operations cost Θ(1) plus the Θ(2P) helping
// bound.
package multistack

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
	opPush uint64 = iota + 1
	opPop
)

// Rv values.
const (
	// RvPending: the operation has not completed.
	RvPending uint64 = 0
	// RvFalse: the operation completed and reports false (empty pop).
	RvFalse uint64 = 1
	// RvTrue: the operation completed and reports true.
	RvTrue uint64 = 2
)

// Done is the completion predicate.
func Done(rv uint64) bool { return rv != RvPending }

// Config configures the stack.
type Config struct {
	// Processors is P; Procs is N.
	Processors, Procs int
	// CC selects the CCAS implementation; defaults to Native.
	CC prim.Impl
	// Mode selects cyclic or priority helping; defaults to Cyclic.
	Mode helping.Mode
	// OneRound enables the single-traversal optimization of [1].
	OneRound bool
}

// Stack is a wait-free LIFO stack.
type Stack struct {
	mem shmem.Memory
	ar  *arena.Arena
	cc  prim.Impl
	eng *helping.Engine
	n   int

	first, last arena.Ref
	par         shmem.Rows // Par[p]: node, op (N+1 rows)
}

const (
	parNode  = 0
	parOp    = 1
	parWidth = 2
)

// New creates a stack; the arena must not be frozen.
func New(m shmem.Memory, ar *arena.Arena, cfg Config) (*Stack, error) {
	if cfg.Procs < 1 {
		return nil, fmt.Errorf("multistack: process count %d out of range", cfg.Procs)
	}
	if cfg.CC == nil {
		cfg.CC = prim.Native{}
	}
	if cfg.Mode == 0 {
		cfg.Mode = helping.Cyclic
	}
	par, err := shmem.NewRows(m, "SPar", cfg.Procs+1, parWidth)
	if err != nil {
		return nil, fmt.Errorf("multistack: %w", err)
	}
	s := &Stack{mem: m, ar: ar, cc: cfg.CC, n: cfg.Procs, par: par}
	ar.SetNextImpl(cfg.CC)
	s.first = ar.Static()
	s.last = ar.Static()
	cfg.CC.InitWord(m, ar.NextAddr(s.first), uint64(s.last))
	cfg.CC.InitWord(m, ar.NextAddr(s.last), uint64(arena.NIL))
	eng, err := helping.New(m, helping.Config{
		Processors: cfg.Processors,
		Procs:      cfg.Procs,
		Mode:       cfg.Mode,
		CC:         cfg.CC,
		Done:       Done,
		Help:       s.help,
		OneRound:   cfg.OneRound,
	}, RvTrue)
	if err != nil {
		return nil, err
	}
	s.eng = eng
	return s, nil
}

func (s *Stack) parAddr(p int, f shmem.Addr) shmem.Addr {
	return s.par.Row(p) + f
}

// Engine exposes the helping engine for checkers and benches.
func (s *Stack) Engine() *helping.Engine { return s.eng }

// Push adds val to the top of the stack.
func (s *Stack) Push(e shmem.Ctx, val uint64) {
	p := e.Slot()
	node, ok := s.ar.Alloc(e, p)
	if !ok {
		panic(fmt.Sprintf("multistack: process %d exhausted its node pool", p))
	}
	e.Store(s.ar.ValAddr(node), val)
	s.cc.Write(e, s.ar.NextAddr(node), uint64(arena.NIL))
	s.cc.Write(e, s.parAddr(p, parNode), uint64(node))
	e.Store(s.parAddr(p, parOp), opPush)
	s.cc.Write(e, s.eng.RvAddr(p), RvPending)
	s.eng.DoOp(e)
}

// Pop removes and returns the most recently pushed value; ok is false when
// the stack was empty.
func (s *Stack) Pop(e shmem.Ctx) (val uint64, ok bool) {
	p := e.Slot()
	e.Store(s.parAddr(p, parOp), opPop)
	s.cc.Write(e, s.parAddr(p, parNode), uint64(arena.NIL))
	s.cc.Write(e, s.eng.RvAddr(p), RvPending)
	s.eng.DoOp(e)
	node := arena.Ref(s.cc.Read(e, s.parAddr(p, parNode)))
	if node == arena.NIL {
		return 0, false
	}
	val = e.Load(s.ar.ValAddr(node))
	s.ar.Free(e, p, node)
	return val, true
}

// help drives the operation announced on ver.Target.
func (s *Stack) help(e shmem.Ctx, ver helping.Version) {
	vw := helping.PackVersion(ver)
	pid := s.eng.AnnPid(e, ver.Target)
	switch e.Load(s.parAddr(pid, parOp)) {
	case opPush:
		s.helpPush(e, vw, pid)
	case opPop:
		s.helpPop(e, vw, pid)
	default:
		// Guard row or stale announce; CCASes would fail anyway.
	}
}

func (s *Stack) helpPush(e shmem.Ctx, vw uint64, pid int) {
	head := arena.Ref(s.cc.Read(e, s.ar.NextAddr(s.first)))
	if s.cc.Read(e, s.eng.RvAddr(pid)) != RvPending {
		return
	}
	newNode := arena.Ref(s.cc.Read(e, s.parAddr(pid, parNode)))
	if head != newNode {
		// Point the new node at the old head (once per op: NIL guard),
		// then swing the head. Both version-guarded.
		s.cc.Exec(e, s.eng.VAddr(), vw, s.ar.NextAddr(newNode), uint64(arena.NIL), uint64(head))
		succ := arena.Ref(s.cc.Read(e, s.ar.NextAddr(newNode)))
		if succ == head {
			if s.cc.Exec(e, s.eng.VAddr(), vw, s.ar.NextAddr(s.first), uint64(head), uint64(newNode)) {
				if e.Traced() {
					e.Note("mpush", trace.I("p", int64(pid)), trace.I("node", int64(newNode)))
				}
			}
		}
	}
	// head == newNode: the splice already happened this round.
	s.cc.Exec(e, s.eng.VAddr(), vw, s.eng.RvAddr(pid), RvPending, RvTrue)
}

func (s *Stack) helpPop(e shmem.Ctx, vw uint64, pid int) {
	victim := arena.Ref(s.cc.Read(e, s.parAddr(pid, parNode)))
	if victim == arena.NIL {
		head := arena.Ref(s.cc.Read(e, s.ar.NextAddr(s.first)))
		if s.cc.Read(e, s.eng.RvAddr(pid)) != RvPending {
			return
		}
		if head == s.last {
			s.cc.Exec(e, s.eng.VAddr(), vw, s.eng.RvAddr(pid), RvPending, RvFalse)
			return
		}
		s.cc.Exec(e, s.eng.VAddr(), vw, s.parAddr(pid, parNode), uint64(arena.NIL), uint64(head))
		victim = arena.Ref(s.cc.Read(e, s.parAddr(pid, parNode)))
		if victim == arena.NIL {
			return // stale round
		}
	}
	succ := arena.Ref(s.cc.Read(e, s.ar.NextAddr(victim)))
	if s.cc.Read(e, s.eng.RvAddr(pid)) != RvPending {
		return
	}
	if s.cc.Exec(e, s.eng.VAddr(), vw, s.ar.NextAddr(s.first), uint64(victim), uint64(succ)) {
		if e.Traced() {
			e.Note("mpop", trace.I("p", int64(pid)), trace.I("node", int64(victim)))
		}
	}
	s.cc.Exec(e, s.eng.VAddr(), vw, s.eng.RvAddr(pid), RvPending, RvTrue)
}

// Snapshot returns the stacked values, top first (quiescent use only).
// SnapshotRegion reports the address range whose words fully determine
// Snapshot, so per-write checkers can skip writes that cannot change it.
func (s *Stack) SnapshotRegion() (lo, hi shmem.Addr) { return s.ar.NodeRegion() }

func (s *Stack) Snapshot() []uint64 { return s.AppendSnapshot(nil) }

// AppendSnapshot appends the snapshot to dst and returns the extended
// slice, letting per-write checkers reuse one scratch buffer across a
// sweep instead of allocating a fresh slice per observed write.
func (s *Stack) AppendSnapshot(dst []uint64) []uint64 {
	vals := dst
	base := len(dst)
	r := arena.Ref(s.cc.Logical(s.mem.Peek(s.ar.NextAddr(s.first))))
	for r != s.last && r != arena.NIL {
		vals = append(vals, s.mem.Peek(s.ar.ValAddr(r)))
		if len(vals)-base > s.ar.Capacity() {
			panic("multistack: stack cycle detected")
		}
		r = arena.Ref(s.cc.Logical(s.mem.Peek(s.ar.NextAddr(r))))
	}
	return vals
}
