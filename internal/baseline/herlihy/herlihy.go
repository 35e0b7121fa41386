// Package herlihy implements a Herlihy-style universal construction
// (reference [8] of the paper; footnote 3), the asynchronous-systems
// baseline the paper's helping schemes are measured against.
//
// Structure: the object's state lives in fixed-size blocks; a shared head
// word names the current block. To operate, a process announces its
// operation, then repeatedly: copies the current block into one of its two
// private blocks, applies every announced-but-unapplied operation of every
// process (helping all N processes — this is the point of comparison: the
// paper's processor-indexed schemes help at most one operation per processor,
// giving 2·P·T instead of 2·N·T), and installs the copy with a CAS on the
// head.
//
// Simplifications relative to Herlihy's paper: per-process sequence numbers
// replace the cell/consensus machinery, and copy consistency is validated by
// re-reading the head instead of bounded-memory ownership accounting. Both
// preserve the cost structure — a full state copy plus up to N helped
// operations per attempt — which is what the A1 ablation measures.
package herlihy

import (
	"fmt"

	"repro/internal/shmem"
)

// Apply is the sequential object semantics: it mutates state (block word
// addresses) and returns the operation's result. It must access memory only
// through e.
type Apply func(e shmem.Ctx, state []shmem.Addr, op, arg uint64) uint64

// head word packing: block index in the low 16 bits, version above.
func packHead(blk int, ver uint64) uint64 { return uint64(blk)&0xFFFF | ver<<16 }
func unpackHead(w uint64) (int, uint64)   { return int(w & 0xFFFF), w >> 16 }

// Object is a universal-construction object for n processes with k state
// words.
type Object struct {
	mem   shmem.Memory
	apply Apply
	n, k  int

	head     shmem.Addr
	announce shmem.Rows // per process: op, arg, seq (3 words)
	blocks   shmem.Addr // (2n+1) blocks of k + 2n words
	blockLen int

	localSeq []uint64 // owner-side operation counters
	toggle   []int    // which private block to use next
}

const annWidth = 3

// New creates the object. The initial state is all-zero k words.
func New(m shmem.Memory, n, k int, apply Apply) (*Object, error) {
	if n < 1 || n > 0xFFF {
		return nil, fmt.Errorf("herlihy: process count %d out of range", n)
	}
	if k < 1 {
		return nil, fmt.Errorf("herlihy: state size %d out of range", k)
	}
	o := &Object{mem: m, apply: apply, n: n, k: k, blockLen: k + 2*n,
		localSeq: make([]uint64, n), toggle: make([]int, n)}
	var err error
	if o.head, err = m.Alloc("UCHead", 1); err != nil {
		return nil, fmt.Errorf("herlihy: %w", err)
	}
	if o.announce, err = shmem.NewRows(m, "UCAnnounce", n, annWidth); err != nil {
		return nil, fmt.Errorf("herlihy: %w", err)
	}
	if o.blocks, err = m.Alloc("UCBlocks", (2*n+1)*o.blockLen); err != nil {
		return nil, fmt.Errorf("herlihy: %w", err)
	}
	m.Poke(o.head, packHead(2*n, 1)) // block 2n is the initial state
	return o, nil
}

// Block word addressing: [k object words][n appliedSeq][n results].
func (o *Object) blockWord(blk, i int) shmem.Addr {
	return o.blocks + shmem.Addr(blk*o.blockLen+i)
}
func (o *Object) blockApplied(blk, q int) shmem.Addr { return o.blockWord(blk, o.k+q) }
func (o *Object) blockResult(blk, q int) shmem.Addr  { return o.blockWord(blk, o.k+o.n+q) }

func (o *Object) annOp(p int) shmem.Addr  { return o.announce.Row(p) }
func (o *Object) annArg(p int) shmem.Addr { return o.announce.Row(p) + 1 }
func (o *Object) annSeq(p int) shmem.Addr { return o.announce.Row(p) + 2 }

// StateAddrs returns the object-word addresses of block blk.
func (o *Object) stateAddrs(blk int) []shmem.Addr {
	addrs := make([]shmem.Addr, o.k)
	for i := range addrs {
		addrs[i] = o.blockWord(blk, i)
	}
	return addrs
}

// PeekState returns the current object words (quiescent use).
func (o *Object) PeekState() []uint64 {
	blk, _ := unpackHead(o.mem.Peek(o.head))
	out := make([]uint64, o.k)
	for i := range out {
		out[i] = o.mem.Peek(o.blockWord(blk, i))
	}
	return out
}

// Do announces and completes one operation, returning its result. The
// worst-case work is O(N·T): each attempt copies the whole state and helps
// every announced operation.
func (o *Object) Do(e shmem.Ctx, op, arg uint64) uint64 {
	p := e.Slot()
	o.localSeq[p]++
	mySeq := o.localSeq[p]
	// Announce: op and arg first, seq last (the "ready" flag).
	e.Store(o.annOp(p), op)
	e.Store(o.annArg(p), arg)
	e.Store(o.annSeq(p), mySeq)

	guard := 0
	for {
		if guard++; guard > 20*o.n+40 {
			panic("herlihy: helping did not converge (construction bug)")
		}
		headWord := e.Load(o.head)
		blk, ver := unpackHead(headWord)
		// Already applied by a helper? Validate against head tearing.
		if e.Load(o.blockApplied(blk, p)) >= mySeq {
			res := e.Load(o.blockResult(blk, p))
			if e.Load(o.head) == headWord {
				return res
			}
			continue
		}
		// Copy the current block into a private one.
		buf := 2*p + o.toggle[p]
		torn := false
		for i := 0; i < o.blockLen; i++ {
			v := e.Load(o.blockWord(blk, i))
			e.Store(o.blockWord(buf, i), v)
			// Cheap incremental validation keeps torn copies from
			// wasting full applies.
			if i%16 == 15 && e.Load(o.head) != headWord {
				torn = true
				break
			}
		}
		if torn || e.Load(o.head) != headWord {
			continue
		}
		// Help every announced, unapplied operation (including ours).
		state := o.stateAddrs(buf)
		for q := 0; q < o.n; q++ {
			qseq := e.Load(o.annSeq(q))
			if qseq == 0 || e.Load(o.blockApplied(buf, q)) >= qseq {
				continue
			}
			qop := e.Load(o.annOp(q))
			qarg := e.Load(o.annArg(q))
			res := o.apply(e, state, qop, qarg)
			e.Store(o.blockApplied(buf, q), qseq)
			e.Store(o.blockResult(buf, q), res)
		}
		if e.CAS(o.head, headWord, packHead(buf, ver+1)) {
			o.toggle[p] ^= 1
			res := e.Load(o.blockResult(buf, p))
			return res
		}
	}
}

// SortedSetApply is a sequential sorted-set object over k slots (0 = empty)
// for use with New: op 1 = insert, 2 = delete, 3 = search; arg is the key
// (nonzero). The result is 1 for true, 0 for false. It is the sequential
// counterpart of the paper's linked lists for the A1 comparison.
func SortedSetApply(e shmem.Ctx, state []shmem.Addr, op, arg uint64) uint64 {
	freeSlot := -1
	for i, a := range state {
		v := e.Load(a)
		if v == arg {
			switch op {
			case 1: // insert: duplicate
				return 0
			case 2: // delete
				e.Store(a, 0)
				return 1
			default: // search
				return 1
			}
		}
		if v == 0 && freeSlot < 0 {
			freeSlot = i
		}
	}
	if op == 1 {
		if freeSlot < 0 {
			panic("herlihy: sorted-set capacity exhausted")
		}
		e.Store(state[freeSlot], arg)
		return 1
	}
	return 0
}
