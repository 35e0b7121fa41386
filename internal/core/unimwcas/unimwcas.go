// Package unimwcas implements the paper's wait-free multi-word
// compare-and-swap for priority-based uniprocessors (Section 2.1, Figure 3).
//
// A W-word MWCAS executes in Θ(W) time, which is asymptotically optimal. The
// implementation needs only CAS. Each word accessible by MWCAS carries three
// control fields packed beside its 32-bit value:
//
//	bits  0..31  val    — the application value
//	bits 32..39  cnt    — index of the word within the writing MWCAS (log B bits)
//	bits 40..55  pid    — the process whose MWCAS last wrote the word (log N bits)
//	bit  56      valid  — clear while an MWCAS that wrote val is undecided
//
// The current (linearized) value of a word w is
//
//	Val(w) = w.val                     if w.valid or Status[w.pid] = 2
//	         Save[w.pid][w.cnt]        otherwise
//
// A MWCAS operation runs in three phases: install proposed values with
// valid=false while saving the old values (lines 1-14), commit by a single
// CAS on Status[p] from 0 to 2 (line 15), and clean up so no word's current
// value depends on Status[p] any longer (lines 16-22). Interfering
// operations of lower priority are invalidated by CASing their Status from 0
// to 1 (lines 10, 13, 19, 21).
//
// Correctness requires the priority-based preemption model enforced by
// internal/sched; under arbitrary (non-priority) interleaving the algorithm
// is expected to fail, and a test demonstrates exactly that.
package unimwcas

import (
	"fmt"

	"repro/internal/shmem"
)

// Field layout of a wordtype word.
const (
	valBits = 32
	cntBits = 8
	pidBits = 16

	cntShift   = valBits
	pidShift   = valBits + cntBits
	validShift = valBits + cntBits + pidBits

	valMask = (uint64(1) << valBits) - 1
	cntMask = (uint64(1) << cntBits) - 1
	pidMask = (uint64(1) << pidBits) - 1
)

// MaxProcs is the largest supported process count (log N pid bits).
const MaxProcs = 1 << pidBits

// MaxWidth is the largest supported per-operation word count B (log B cnt
// bits).
const MaxWidth = 1 << cntBits

// Word is the decoded form of a wordtype word.
type Word struct {
	Val   uint32
	Cnt   uint8
	Valid bool
	Pid   uint16
}

// Pack encodes a Word into its shared-memory representation.
func Pack(w Word) uint64 {
	v := uint64(w.Val) | uint64(w.Cnt)<<cntShift | uint64(w.Pid)<<pidShift
	if w.Valid {
		v |= 1 << validShift
	}
	return v
}

// Unpack decodes a shared-memory word.
func Unpack(raw uint64) Word {
	return Word{
		Val:   uint32(raw & valMask),
		Cnt:   uint8(raw >> cntShift & cntMask),
		Pid:   uint16(raw >> pidShift & pidMask),
		Valid: raw>>validShift&1 == 1,
	}
}

// Status values (shared variable Status in Figure 3).
const (
	// StatusPending (0): the process's latest MWCAS is undecided.
	StatusPending uint64 = 0
	// StatusInvalid (1): the MWCAS failed (mismatch or interference).
	StatusInvalid uint64 = 1
	// StatusValid (2): the MWCAS committed.
	StatusValid uint64 = 2
)

// Object is one instance of the uniprocessor MWCAS: the Status and Save
// arrays shared by N processes, each of whose operations accesses at most B
// words.
type Object struct {
	mem    shmem.Memory
	n      int
	b      int
	status shmem.Addr // Status: array[0..N-1] of integer
	save   shmem.Addr // Save: array[0..N-1, 0..B-1] of valtype

	// Private per-process state of MWCAS (init and assn in Figure 3),
	// laid out like Save: process p owns [p*B, (p+1)*B).
	init []Word
	assn []uint64
}

// New allocates an MWCAS object for n processes with width limit b.
func New(m shmem.Memory, n, b int) (*Object, error) {
	if n < 1 || n > MaxProcs {
		return nil, fmt.Errorf("unimwcas: process count %d out of range [1,%d]", n, MaxProcs)
	}
	if b < 1 || b > MaxWidth {
		return nil, fmt.Errorf("unimwcas: width %d out of range [1,%d]", b, MaxWidth)
	}
	status, err := m.Alloc("Status", n)
	if err != nil {
		return nil, fmt.Errorf("unimwcas: %w", err)
	}
	save, err := m.Alloc("Save", n*b)
	if err != nil {
		return nil, fmt.Errorf("unimwcas: %w", err)
	}
	return &Object{
		mem: m, n: n, b: b, status: status, save: save,
		init: make([]Word, n*b), assn: make([]uint64, n*b),
	}, nil
}

// InitWord initializes a word for use with this object (setup time): value
// val, valid set, as the paper requires ("the valid field should be
// initially true").
func (o *Object) InitWord(a shmem.Addr, val uint32) {
	o.mem.Poke(a, Pack(Word{Val: val, Valid: true}))
}

// StatusAddr returns the address of Status[p], for checkers.
func (o *Object) StatusAddr(p int) shmem.Addr { return o.status + shmem.Addr(p) }

// SaveAddr returns the address of Save[p][c], for checkers.
func (o *Object) SaveAddr(p, c int) shmem.Addr { return o.save + shmem.Addr(p*o.b+c) }

// Width returns B, the per-operation word limit.
func (o *Object) Width() int { return o.b }

// Procs returns N, the process count.
func (o *Object) Procs() int { return o.n }

// Val computes the current (linearized) value of word a per the paper's
// definition, reading memory directly. It is for checkers and quiescent
// inspection only; concurrent processes must use Read.
func (o *Object) Val(a shmem.Addr) uint32 {
	w := Unpack(o.mem.Peek(a))
	if w.Valid || o.mem.Peek(o.StatusAddr(int(w.Pid))) == StatusValid {
		return w.Val
	}
	return uint32(o.mem.Peek(o.SaveAddr(int(w.Pid), int(w.Cnt))))
}

// MWCAS performs a multi-word compare-and-swap on behalf of the calling
// process (lines 1-22 of Figure 3): iff every addrs[i] currently holds
// old[i], atomically set each to new[i]. It reports whether the operation
// committed. The addresses must be distinct and len(addrs) <= B.
func (o *Object) MWCAS(e shmem.Ctx, addrs []shmem.Addr, old, new []uint32) bool {
	p := e.Slot()
	o.checkArgs(p, addrs, old, new)
	numwds := len(addrs)
	init := o.init[p*o.b : p*o.b+numwds] // private: values initially read
	assn := o.assn[p*o.b : p*o.b+numwds]

	e.Store(o.StatusAddr(p), StatusPending)                      // line 1
	i := 0                                                       // line 2
	for i < numwds && e.Load(o.StatusAddr(p)) == StatusPending { // line 3
		init[i] = Unpack(e.Load(addrs[i])) // line 4
		var val uint32
		if init[i].Valid || e.Load(o.StatusAddr(int(init[i].Pid))) == StatusValid { // line 5
			val = init[i].Val // line 6
		} else {
			val = uint32(e.Load(o.SaveAddr(int(init[i].Pid), int(init[i].Cnt)))) // line 7
		}
		e.Store(o.SaveAddr(p, i), uint64(val)) // line 8
		if old[i] != val {                     // line 9
			e.Store(o.StatusAddr(p), StatusInvalid) // line 10
		} else {
			assn[i] = Pack(Word{Val: new[i], Cnt: uint8(i), Valid: false, Pid: uint16(p)}) // line 11
			if !e.CAS(addrs[i], Pack(init[i]), assn[i]) {                                  // line 12
				e.Store(o.StatusAddr(p), StatusInvalid) // line 13
			}
			i++ // line 14
		}
	}

	retval := e.CAS(o.StatusAddr(p), StatusPending, StatusValid) // line 15
	for j := 0; j < i; j++ {                                     // line 16
		if old[j] != new[j] && retval { // line 17
			// Commit the word: same value, cnt 0, valid, pid p.
			e.CAS(addrs[j], assn[j], Pack(Word{Val: new[j], Cnt: 0, Valid: true, Pid: uint16(p)})) // line 18
			if !init[j].Valid {                                                                    // line 19
				e.CAS(o.StatusAddr(int(init[j].Pid)), StatusPending, StatusInvalid)
			}
		} else if !e.CAS(addrs[j], assn[j], Pack(init[j])) { // line 20
			if !init[j].Valid { // line 21
				e.CAS(o.StatusAddr(int(init[j].Pid)), StatusPending, StatusInvalid)
			}
		}
	}
	return retval // line 22
}

// Read returns the current value of word a (lines 23-26 of Figure 3).
func (o *Object) Read(e shmem.Ctx, a shmem.Addr) uint32 {
	w := Unpack(e.Load(a))                                          // line 23
	if w.Valid || e.Load(o.StatusAddr(int(w.Pid))) == StatusValid { // line 24
		return w.Val // line 25
	}
	return uint32(e.Load(o.SaveAddr(int(w.Pid), int(w.Cnt)))) // line 26
}

func (o *Object) checkArgs(p int, addrs []shmem.Addr, old, new []uint32) {
	if p < 0 || p >= o.n {
		panic(fmt.Sprintf("unimwcas: process slot %d out of range [0,%d)", p, o.n))
	}
	if len(addrs) == 0 || len(addrs) > o.b {
		panic(fmt.Sprintf("unimwcas: %d words out of range [1,%d]", len(addrs), o.b))
	}
	if len(old) != len(addrs) || len(new) != len(addrs) {
		panic("unimwcas: addrs, old, new must have equal length")
	}
	for i, a := range addrs {
		for j := 0; j < i; j++ {
			if addrs[j] == a {
				panic(fmt.Sprintf("unimwcas: duplicate address %d at positions %d and %d", int(a), j, i))
			}
		}
	}
}
