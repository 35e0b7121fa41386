// Package unistack implements a wait-free LIFO stack for priority-based
// uniprocessors — another of the "linear" data structures the paper's
// Section 4 describes as directly amenable to its helping schemes.
//
// Both operations work at the head sentinel, so no scan (and no Ann.ptr
// checkpoint) is needed; every operation is Θ(1), Θ(2) with helping. Push
// is the Figure 5 insert protocol at the head position; pop fixes its
// victim in Par[p].node with a CAS from NIL (the line-53 discipline of the
// multiprocessor list) and unsplices using raw pointer values, so stale
// helpers are harmless under the priority model.
package unistack

import (
	"fmt"

	"repro/internal/arena"
	"repro/internal/inchelp"
	"repro/internal/shmem"
	"repro/internal/trace"
)

// Operation codes stored in Par[p].op.
const (
	opPush uint64 = iota + 1
	opPop
)

func packPtr(r arena.Ref, bit uint64) uint64 { return uint64(r)<<1 | bit&1 }
func unpackPtr(w uint64) (arena.Ref, uint64) { return arena.Ref(w >> 1), w & 1 }

// Stack is a wait-free LIFO stack for one priority-scheduled processor.
type Stack struct {
	mem shmem.Memory
	ar  *arena.Arena
	eng *inchelp.Engine
	n   int

	first, last arena.Ref // head sentinel and bottom sentinel
	par         shmem.Rows
}

const (
	parNode  = 0
	parOp    = 1
	parWidth = 2
)

// New creates a stack for n process slots; the arena must not be frozen.
func New(m shmem.Memory, ar *arena.Arena, n int) (*Stack, error) {
	if n < 1 {
		return nil, fmt.Errorf("unistack: process count %d out of range", n)
	}
	par, err := shmem.NewRows(m, "SPar", n, parWidth)
	if err != nil {
		return nil, fmt.Errorf("unistack: %w", err)
	}
	s := &Stack{mem: m, ar: ar, n: n, par: par}
	s.first = ar.Static()
	s.last = ar.Static()
	m.Poke(ar.NextAddr(s.first), packPtr(s.last, 0))
	m.Poke(ar.NextAddr(s.last), packPtr(arena.NIL, 0))
	eng, err := inchelp.New(m, inchelp.Config{Procs: n, Help: s.help})
	if err != nil {
		return nil, err
	}
	s.eng = eng
	return s, nil
}

// Engine exposes the helping engine, for checkers.
func (s *Stack) Engine() *inchelp.Engine { return s.eng }

// PeekPar returns process p's Par record (node, op), for checkers.
func (s *Stack) PeekPar(p int) (node, op uint64) {
	return s.mem.Peek(s.parAddr(p, parNode)), s.mem.Peek(s.parAddr(p, parOp))
}

func (s *Stack) parAddr(p int, f shmem.Addr) shmem.Addr {
	return s.par.Row(p) + f
}

// Push adds val to the top of the stack.
func (s *Stack) Push(e shmem.Ctx, val uint64) {
	p := e.Slot()
	node, ok := s.ar.Alloc(e, p)
	if !ok {
		panic(fmt.Sprintf("unistack: process %d exhausted its node pool", p))
	}
	e.Store(s.ar.ValAddr(node), val)
	e.Store(s.ar.NextAddr(node), packPtr(arena.NIL, 0))
	e.Store(s.parAddr(p, parNode), uint64(node))
	e.Store(s.parAddr(p, parOp), opPush)
	s.eng.DoOp(e)
}

// Pop removes and returns the most recently pushed value; ok is false when
// the stack was empty.
func (s *Stack) Pop(e shmem.Ctx) (val uint64, ok bool) {
	p := e.Slot()
	e.Store(s.parAddr(p, parNode), uint64(arena.NIL))
	e.Store(s.parAddr(p, parOp), opPop)
	s.eng.DoOp(e)
	node := arena.Ref(e.Load(s.parAddr(p, parNode)))
	if node == arena.NIL {
		return 0, false
	}
	val = e.Load(s.ar.ValAddr(node))
	s.ar.Free(e, p, node)
	return val, true
}

func (s *Stack) help(e shmem.Ctx, pid int) {
	switch e.Load(s.parAddr(pid, parOp)) {
	case opPush:
		s.helpPush(e, pid)
	case opPop:
		s.helpPop(e, pid)
	}
}

// helpPush splices the new node after the head sentinel (Figure 5's insert
// protocol with curr = First).
func (s *Stack) helpPush(e shmem.Ctx, pid int) {
	nextp := e.Load(s.ar.NextAddr(s.first))
	nextRef, _ := unpackPtr(nextp)
	if s.eng.Rv(e, pid) != inchelp.RvPending {
		return
	}
	newNode := arena.Ref(e.Load(s.parAddr(pid, parNode)))
	if nextRef == newNode {
		// The head already is the operation's own node: the splice is
		// done (the re-splice below would be a harmless same-value
		// write, but skipping is clearer and cheaper).
		s.eng.SetRv(e, pid, inchelp.RvTrue)
		return
	}
	e.CAS(s.ar.NextAddr(newNode), packPtr(arena.NIL, 0), packPtr(nextRef, 0))
	e.CAS(s.ar.NextAddr(s.first), nextp, packPtr(nextRef, 1))
	nextp = packPtr(nextRef, 1)
	if s.eng.Rv(e, pid) == inchelp.RvPending {
		if e.CAS(s.ar.NextAddr(s.first), nextp, packPtr(newNode, 0)) {
			if e.Traced() {
				e.Note("push", trace.I("p", int64(pid)), trace.I("node", int64(newNode)))
			}
		}
	} else {
		e.CAS(s.ar.NextAddr(s.first), nextp, packPtr(nextRef, 0))
	}
	s.eng.SetRv(e, pid, inchelp.RvTrue)
}

// helpPop fixes the victim then unsplices it from the head.
func (s *Stack) helpPop(e shmem.Ctx, pid int) {
	victim := arena.Ref(e.Load(s.parAddr(pid, parNode)))
	if victim == arena.NIL {
		headp := e.Load(s.ar.NextAddr(s.first))
		head, _ := unpackPtr(headp)
		if s.eng.Rv(e, pid) != inchelp.RvPending {
			return
		}
		if head == s.last {
			s.eng.SetRv(e, pid, inchelp.RvFalse) // empty
			return
		}
		e.CAS(s.parAddr(pid, parNode), uint64(arena.NIL), uint64(head))
		victim = arena.Ref(e.Load(s.parAddr(pid, parNode)))
	}
	raw := e.Load(s.ar.NextAddr(s.first))
	ptr, _ := unpackPtr(raw)
	succp := e.Load(s.ar.NextAddr(victim))
	succ, _ := unpackPtr(succp)
	if s.eng.Rv(e, pid) != inchelp.RvPending {
		return
	}
	if ptr == victim {
		if e.CAS(s.ar.NextAddr(s.first), raw, packPtr(succ, 0)) {
			if e.Traced() {
				e.Note("pop", trace.I("p", int64(pid)), trace.I("node", int64(victim)))
			}
		}
	}
	s.eng.SetRv(e, pid, inchelp.RvTrue)
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
	r, _ := unpackPtr(s.mem.Peek(s.ar.NextAddr(s.first)))
	for r != s.last && r != arena.NIL {
		vals = append(vals, s.mem.Peek(s.ar.ValAddr(r)))
		if len(vals)-base > s.ar.Capacity() {
			panic("unistack: stack cycle detected")
		}
		r, _ = unpackPtr(s.mem.Peek(s.ar.NextAddr(r)))
	}
	return vals
}
