// Package multimwcas implements the paper's wait-free multi-word
// compare-and-swap for priority-based multiprocessors (Section 3.1,
// Figure 6).
//
// The implementation combines incremental helping (one announce variable per
// processor), cyclic or priority helping across processors (internal/
// helping), and the CCAS primitive (internal/prim). A W-word MWCAS on P
// processors completes in Θ(2·P·W) time: at most two traversals of the
// helping ring, helping at most one W-word operation per processor per
// traversal. Unlike the uniprocessor algorithm (internal/core/unimwcas), no
// control bits are packed into application words, so it could also be used
// on a uniprocessor at the price of CCAS; the trade-off the paper discusses
// at the end of Section 2.1.
//
// Rv[p] encodes the state of process p's latest operation: 0 — compare phase
// not complete; 1 — compare complete, swap phase in progress; 2 — committed
// (returns true); 3 — failed (returns false). Rv[N] is permanently 2 so an
// empty announce slot reads as "nothing to do".
package multimwcas

import (
	"fmt"

	"repro/internal/helping"
	"repro/internal/prim"
	"repro/internal/shmem"
)

// Rv values.
const (
	// RvComparing: compare phase not completed.
	RvComparing uint64 = 0
	// RvSwapping: compare phase completed, swap phase not completed.
	RvSwapping uint64 = 1
	// RvTrue: the MWCAS committed.
	RvTrue uint64 = 2
	// RvFalse: the MWCAS failed.
	RvFalse uint64 = 3
)

// Done is the completion predicate for Rv values (rv >= 2).
func Done(rv uint64) bool { return rv >= RvTrue }

// Config configures the object.
type Config struct {
	// Processors is P, Procs is N, Width is B (max words per operation).
	Processors, Procs, Width int
	// CC selects the CCAS implementation (native, tagged, delayed).
	CC prim.Impl
	// Mode selects cyclic or priority helping; defaults to Cyclic.
	Mode helping.Mode
	// OneRound enables the single-traversal real-time optimization of
	// reference [1] (see helping.Config.OneRound for the soundness
	// condition).
	OneRound bool
}

// Object is a multiprocessor wait-free MWCAS instance.
type Object struct {
	mem shmem.Memory
	cc  prim.Impl
	eng *helping.Engine
	n   int
	b   int

	par shmem.Rows // Par[p]: numwds, B addrs, B olds, B news per process
}

// Par row layout: numwds, then addr[0..B), old[0..B), new[0..B).
func (o *Object) parNumwds(p int) shmem.Addr { return o.par.Row(p) }
func (o *Object) parAddr(p, i int) shmem.Addr {
	return o.parNumwds(p) + 1 + shmem.Addr(i)
}
func (o *Object) parOld(p, i int) shmem.Addr {
	return o.parNumwds(p) + 1 + shmem.Addr(o.b+i)
}
func (o *Object) parNew(p, i int) shmem.Addr {
	return o.parNumwds(p) + 1 + shmem.Addr(2*o.b+i)
}

// New allocates the object and its helping engine.
func New(m shmem.Memory, cfg Config) (*Object, error) {
	if cfg.Width < 1 {
		return nil, fmt.Errorf("multimwcas: width %d out of range", cfg.Width)
	}
	if cfg.CC == nil {
		cfg.CC = prim.Native{}
	}
	if cfg.Mode == 0 {
		cfg.Mode = helping.Cyclic
	}
	o := &Object{mem: m, cc: cfg.CC, n: cfg.Procs, b: cfg.Width}
	// One guard row at index N so a stale read of Ann[R] == N dereferences
	// in-bounds memory (the paper types announce pids as 0..N).
	par, err := shmem.NewRows(m, "Par", cfg.Procs+1, 1+3*cfg.Width)
	if err != nil {
		return nil, fmt.Errorf("multimwcas: %w", err)
	}
	o.par = par
	eng, err := helping.New(m, helping.Config{
		Processors: cfg.Processors,
		Procs:      cfg.Procs,
		Mode:       cfg.Mode,
		CC:         cfg.CC,
		Done:       Done,
		Help:       o.help,
		OneRound:   cfg.OneRound,
	}, RvTrue)
	if err != nil {
		return nil, err
	}
	o.eng = eng
	return o, nil
}

// Engine exposes the helping engine, for checkers and ablation benches.
func (o *Object) Engine() *helping.Engine { return o.eng }

// InitWord initializes an application word at setup time. Under the tagged
// CCAS representation values are limited to the implementation's MaxLogical.
func (o *Object) InitWord(a shmem.Addr, val uint64) {
	o.cc.InitWord(o.mem, a, val)
}

// ReadWord returns the logical value of an application word. See Section
// 3.1's discussion of reads: a plain read does not serialize against
// in-progress MWCAS operations; use ReadConsistent for the helping-scheme
// read the paper describes as the third solution.
func (o *Object) ReadWord(e shmem.Ctx, a shmem.Addr) uint64 {
	return o.cc.Read(e, a)
}

// ReadConsistent advances the help counter once before reading, so any
// partially-complete MWCAS over the word is finished first (the paper's
// third read strategy; ~2·T per read).
func (o *Object) ReadConsistent(e shmem.Ctx, a shmem.Addr) uint64 {
	ver := helping.UnpackVersion(e.Load(o.eng.VAddr()))
	if ver.Needhelp {
		o.help(e, ver)
	}
	o.eng.Advance(e, ver)
	return o.cc.Read(e, a)
}

// Val returns the logical value of an application word without charging
// simulated time (checkers and quiescent inspection).
func (o *Object) Val(a shmem.Addr) uint64 { return o.cc.Logical(o.mem.Peek(a)) }

// RvAddr exposes Rv[p]'s address for checkers.
func (o *Object) RvAddr(p int) shmem.Addr { return o.eng.RvAddr(p) }

// MWCAS performs the multi-word compare-and-swap (lines 1-15 of Figure 6).
// It reports whether the operation committed.
func (o *Object) MWCAS(e shmem.Ctx, addrs []shmem.Addr, old, new []uint64) bool {
	p := e.Slot()
	o.checkArgs(p, addrs, old, new)
	// Line 1: Par[p] := (numwds, addr, old, new).
	e.Store(o.parNumwds(p), uint64(len(addrs)))
	for i := range addrs {
		e.Store(o.parAddr(p, i), uint64(addrs[i]))
		e.Store(o.parOld(p, i), old[i])
		e.Store(o.parNew(p, i), new[i])
	}
	// Line 2: Rv[p] := 0. A protocol write: no helper can hold a live
	// CCAS on Rv[p] because the previous operation's round is over.
	o.cc.Write(e, o.eng.RvAddr(p), RvComparing)
	// Lines 3-15: two rounds of helping drive the operation.
	o.eng.DoOp(e)
	return o.cc.Read(e, o.eng.RvAddr(p)) == RvTrue
}

// help helps the operation announced on ver.Target (lines 16-30).
func (o *Object) help(e shmem.Ctx, ver helping.Version) {
	cpid := o.eng.AnnPid(e, ver.Target) // line 16
	rv := o.cc.Read(e, o.eng.RvAddr(cpid))
	if Done(rv) { // line 17
		return
	}
	numwds := int(e.Load(o.parNumwds(cpid))) // line 18: par := &Par[cpid]
	for i := 0; i < numwds; i++ {            // line 19
		a := shmem.Addr(e.Load(o.parAddr(cpid, i)))
		oldv := e.Load(o.parOld(cpid, i))
		if o.cc.Read(e, a) != oldv { // line 20
			if !o.cc.Exec(e, o.eng.VAddr(), versionWord(ver), o.eng.RvAddr(cpid), RvComparing, RvFalse) { // line 21
				break
			}
			return // line 22
		}
	}
	o.cc.Exec(e, o.eng.VAddr(), versionWord(ver), o.eng.RvAddr(cpid), RvComparing, RvSwapping) // line 23
	for i := 0; i < numwds; i++ {                                                              // line 24
		if e.Load(o.eng.VAddr()) != versionWord(ver) { // line 25
			return
		}
		if Done(o.cc.Read(e, o.eng.RvAddr(cpid))) { // line 26
			return
		}
		oldv := e.Load(o.parOld(cpid, i))
		newv := e.Load(o.parNew(cpid, i))
		if oldv != newv { // line 27
			a := shmem.Addr(e.Load(o.parAddr(cpid, i)))
			o.cc.Exec(e, o.eng.VAddr(), versionWord(ver), a, oldv, newv) // line 28
		}
	}
	o.cc.Exec(e, o.eng.VAddr(), versionWord(ver), o.eng.RvAddr(cpid), RvSwapping, RvTrue) // line 29
}

// versionWord re-packs a Version for CCAS's compare-only parameter.
func versionWord(v helping.Version) uint64 { return helping.PackVersion(v) }

func (o *Object) checkArgs(p int, addrs []shmem.Addr, old, new []uint64) {
	if p < 0 || p >= o.n {
		panic(fmt.Sprintf("multimwcas: slot %d out of range [0,%d)", p, o.n))
	}
	if len(addrs) == 0 || len(addrs) > o.b {
		panic(fmt.Sprintf("multimwcas: %d words out of range [1,%d]", len(addrs), o.b))
	}
	if len(old) != len(addrs) || len(new) != len(addrs) {
		panic("multimwcas: addrs, old, new must have equal length")
	}
	max := o.cc.MaxLogical()
	for i, a := range addrs {
		if old[i] > max || new[i] > max {
			panic(fmt.Sprintf("multimwcas: value exceeds CCAS logical capacity %#x", max))
		}
		for j := 0; j < i; j++ {
			if addrs[j] == a {
				panic(fmt.Sprintf("multimwcas: duplicate address %d at positions %d and %d", int(a), j, i))
			}
		}
	}
}
