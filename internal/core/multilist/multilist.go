// Package multilist implements the paper's wait-free sorted linked list for
// priority-based multiprocessors (Section 3.2, Figure 7).
//
// It reuses the uniprocessor list's structure — sentinel-bounded sorted
// nodes, per-process Par records, announce-pointer scan checkpointing — but
// replaces the (pointer, bit) protocol with CCAS guarded by the helping
// engine's version word: every structural update names the version of the
// helping round it belongs to, so stale helpers' updates have no effect. As
// the paper notes, this makes the insert path simpler than the uniprocessor
// one and leaves node words free of control bits (under the native and
// delayed CCAS representations).
//
// An operation completes in Θ(2·P·T) worst-case time: two traversals of the
// helping ring, at most one list operation helped per processor per
// traversal.
// Search first tries a read-only walk validated by the structure epoch S,
// a word that only splicing and unsplicing rounds move, and runs the
// protocol only when that walk saw S move.
//
// The Findpos scan advances the shared checkpoint Ann[R].ptr with CCAS. The
// paper's measured configuration performed that CCAS "once for every 100
// nodes scanned"; Config.Stride reproduces the optimization (ablation A4).
//
// Figure 7 gives insert and delete no failure reporting (a helper that runs
// after the splice cannot naively distinguish "the key was already there"
// from "our own splice just completed"). To provide set semantics we extend
// the helper with a distinction that is safe within the deciding round:
// operations always complete inside the round that decides them (the version
// word cannot advance before some helper finishes the case), so the new
// node's next field (for inserts) and Par[p].node (for deletes) are
// round-stable discriminators between "already done by us" and a genuine
// duplicate/absence. Rv=1 then reports failure exactly as in the search
// case, and the owner recycles an unlinked insert node.
package multilist

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
	opIns uint64 = iota + 1
	opDel
	opSch
)

// Rv values.
const (
	// RvPending: the operation has not completed.
	RvPending uint64 = 0
	// RvFalse: the operation completed and reports false.
	RvFalse uint64 = 1
	// RvTrue: the operation completed and reports true.
	RvTrue uint64 = 2
)

// Done is the completion predicate for Rv values (rv != 0).
func Done(rv uint64) bool { return rv != RvPending }

// KeyMin and KeyMax bound the user key space (sentinel keys).
const (
	KeyMin = uint64(0)
	KeyMax = ^uint64(0)
)

// Config configures the list.
type Config struct {
	// Processors is P; Procs is N.
	Processors, Procs int
	// CC selects the CCAS implementation; unset (the zero prim.Impl)
	// defaults to prim.Native().
	CC prim.Impl
	// Mode selects cyclic or priority helping; defaults to Cyclic.
	Mode helping.Mode
	// Stride is the number of nodes scanned privately between checkpoint
	// CCAS operations in Findpos (1 = checkpoint every node, the
	// figure's literal code; 100 = the paper's measured configuration).
	Stride int
	// OneRound enables the single-traversal real-time optimization of
	// reference [1].
	OneRound bool
}

// List is a multiprocessor wait-free sorted linked list.
type List struct {
	mem    shmem.Memory
	ar     *arena.Arena
	cc     prim.Impl
	eng    *helping.Engine
	n      int
	stride int

	first, last arena.Ref
	par         shmem.Rows // Par[p]: node, key, op (3 words; N+1 rows)
	annPtr      shmem.Rows // Ann[R].ptr (P rows)
	// epoch is the structure epoch S: V.cnt of the last round that
	// spliced or unspliced a node. Every round that changes a link bumps
	// it, by a version-guarded CCAS, before its Rv reports; read
	// validates against it.
	epoch shmem.Addr
}

// Par field offsets.
const (
	parNode  = 0
	parKey   = 1
	parOp    = 2
	parWidth = 3
)

// New creates a list. The arena must not be frozen; its next-field
// representation is set to cfg.CC.
func New(m shmem.Memory, ar *arena.Arena, cfg Config) (*List, error) {
	if cfg.Procs < 1 {
		return nil, fmt.Errorf("multilist: process count %d out of range", cfg.Procs)
	}
	if cfg.CC.IsZero() {
		cfg.CC = prim.Native()
	}
	if cfg.Mode == 0 {
		cfg.Mode = helping.Cyclic
	}
	if cfg.Stride < 1 {
		cfg.Stride = 1
	}
	par, err := shmem.NewRows(m, "Par", cfg.Procs+1, parWidth) // guard row at N
	if err != nil {
		return nil, fmt.Errorf("multilist: %w", err)
	}
	annPtr, err := shmem.NewRows(m, "AnnPtr", cfg.Processors, 1)
	if err != nil {
		return nil, fmt.Errorf("multilist: %w", err)
	}
	// S starts at 0, the count of V's initial round, whose Needhelp is
	// clear: no round with count 0 ever helps, so none changes a link.
	epoch, err := m.Alloc("Epoch", 1)
	if err != nil {
		return nil, fmt.Errorf("multilist: %w", err)
	}
	l := &List{mem: m, ar: ar, cc: cfg.CC, n: cfg.Procs, stride: cfg.Stride, par: par, annPtr: annPtr, epoch: epoch}
	cfg.CC.InitWord(m, epoch, 0)
	ar.SetNextImpl(cfg.CC)
	l.first = ar.Static()
	l.last = ar.Static()
	m.Poke(ar.KeyAddr(l.first), KeyMin)
	m.Poke(ar.ValAddr(l.first), 0)
	cfg.CC.InitWord(m, ar.NextAddr(l.first), uint64(l.last))
	m.Poke(ar.KeyAddr(l.last), KeyMax)
	m.Poke(ar.ValAddr(l.last), 0)
	cfg.CC.InitWord(m, ar.NextAddr(l.last), uint64(arena.NIL))
	for r := 0; r < cfg.Processors; r++ {
		cfg.CC.InitWord(m, l.annPtrAddr(r), uint64(l.first))
	}
	eng, err := helping.New(m, helping.Config{
		Processors: cfg.Processors,
		Procs:      cfg.Procs,
		Mode:       cfg.Mode,
		CC:         cfg.CC,
		Done:       Done,
		Help:       l.help,
		OnAnnounce: func(e shmem.Ctx) {
			// Line 27: Ann[mypr].ptr := &First (protocol write).
			l.cc.Write(e, l.annPtrAddr(e.CPU()), uint64(l.first))
		},
		OneRound: cfg.OneRound,
	}, RvTrue)
	if err != nil {
		return nil, err
	}
	l.eng = eng
	return l, nil
}

func (l *List) annPtrAddr(r int) shmem.Addr { return l.annPtr.Row(r) }

func (l *List) parAddr(p int, field shmem.Addr) shmem.Addr {
	return l.par.Row(p) + field
}

// Engine exposes the helping engine for checkers and benches.
func (l *List) Engine() *helping.Engine { return l.eng }

// Arena returns the node arena.
func (l *List) Arena() *arena.Arena { return l.ar }

// First returns the head sentinel.
func (l *List) First() arena.Ref { return l.first }

// Last returns the tail sentinel.
func (l *List) Last() arena.Ref { return l.last }

// RvAddr exposes Rv[p]'s address for checkers.
func (l *List) RvAddr(p int) shmem.Addr { return l.eng.RvAddr(p) }

// Insert adds key with the given value, reporting false on duplicate
// (Figure 5 lines 1-5 with NIL next initialization per Figure 7's caption).
func (l *List) Insert(e shmem.Ctx, key, val uint64) bool {
	l.checkKey(key)
	p := e.Slot()
	node, ok := l.ar.Alloc(e, p)
	if !ok {
		panic(fmt.Sprintf("multilist: process %d exhausted its node pool", p))
	}
	e.Store(l.ar.KeyAddr(node), key)
	e.Store(l.ar.ValAddr(node), val)
	l.cc.Write(e, l.ar.NextAddr(node), uint64(arena.NIL)) // next := NIL
	// Par[p].node is CCAS-managed (the delete path CCASes it), so all
	// writes go through the representation.
	l.cc.Write(e, l.parAddr(p, parNode), uint64(node))
	e.Store(l.parAddr(p, parKey), key)
	e.Store(l.parAddr(p, parOp), opIns)
	l.cc.Write(e, l.eng.RvAddr(p), RvPending)
	l.eng.DoOp(e)
	// Rv distinguishes the outcomes: 2 — our node was spliced; 1 — true
	// duplicate, the node was never linked and can be recycled. Rv[p] is
	// stable after completion (only the owner re-arms it; stale helper
	// CCAS operations fail on the version check), unlike the node's own
	// next field, which another process may recycle as soon as a
	// subsequent delete of the key commits.
	if l.cc.Read(e, l.eng.RvAddr(p)) == RvTrue {
		return true
	}
	l.ar.Free(e, p, node) // duplicate key: the node was never linked
	return false
}

// Delete removes key, reporting whether it was present. The removed node is
// recycled into the caller's pool.
func (l *List) Delete(e shmem.Ctx, key uint64) bool {
	l.checkKey(key)
	p := e.Slot()
	e.Store(l.parAddr(p, parKey), key)
	e.Store(l.parAddr(p, parOp), opDel)
	l.cc.Write(e, l.parAddr(p, parNode), uint64(arena.NIL))
	l.cc.Write(e, l.eng.RvAddr(p), RvPending)
	l.eng.DoOp(e)
	// The key was actually removed iff some helper recorded the victim
	// node in Par[p].node (line 53); Par[p].node is round-stable and
	// owner-reset, so it is a safe discriminator even after the node's
	// memory has been recycled.
	node := arena.Ref(l.cc.Read(e, l.parAddr(p, parNode)))
	if node == arena.NIL {
		return false // key was absent
	}
	l.ar.Free(e, p, node)
	return true
}

// readCheck is the number of hops Search's read-only walk takes between
// checks of the structure epoch. The check is what bounds a walk that
// strayed into recycled nodes after S moved: it notices within readCheck
// hops.
const readCheck = 4

// Search reports whether key is present.
//
// It first walks the list read-only (read): no announce, no checkpoint, no
// shared write. Every structural change happens by a CCAS naming the
// helping round that decided it, each round makes at most one, every
// helper of that round sets S to the round's count before Rv reports, and
// a node is recycled only after its unlinking round's Rv reported; so a
// walk that saw S unchanged from its first load to its last saw at most
// one splice or unsplice and no recycled node, and its answer is the key's
// presence just before or just after that change (PROOFNOTES.md, "The
// list's validated read"). Ring steps that change no link — searches,
// duplicate inserts, deletes of absent keys, rounds with nothing to help —
// leave S alone, so they cannot fail the walk. Only when S moved does
// Search fall back to the announce/help protocol (lines 55-58), which
// keeps it wait-free: its worst case is one failed walk, about
// (2+1/readCheck) loads a hop over at most T+1+readCheck hops, plus the
// Θ(2·P·T) protocol.
func (l *List) Search(e shmem.Ctx, key uint64) bool {
	l.checkKey(key)
	p := e.Slot()
	if e.Traced() {
		e.Note("invoke", trace.I("p", int64(p)))
	}
	found, ok := l.read(e, key)
	if !ok {
		if e.Traced() {
			e.Note("read-fallback", trace.I("p", int64(p)))
		}
		e.Store(l.parAddr(p, parKey), key)
		e.Store(l.parAddr(p, parOp), opSch)
		l.cc.Write(e, l.eng.RvAddr(p), RvPending)
		l.eng.Drive(e)
		found = l.cc.Read(e, l.eng.RvAddr(p)) == RvTrue
	}
	if e.Traced() {
		e.Note("response", trace.I("p", int64(p)))
	}
	return found
}

// read walks First → … toward key with plain reads, loading the structure
// epoch at the start, every readCheck hops and when the walk stops. It
// reports ok only if S held one value throughout; a NIL next pointer (a
// node recycled mid-walk) fails the read too.
func (l *List) read(e shmem.Ctx, key uint64) (found, ok bool) {
	sw := l.cc.Read(e, l.epoch)
	curr := l.first
	for hop := 1; ; hop++ {
		next := arena.Ref(l.cc.Read(e, l.ar.NextAddr(curr)))
		if next == arena.NIL {
			return false, false
		}
		if nextkey := e.Load(l.ar.KeyAddr(next)); nextkey >= key {
			return nextkey == key, mutReadUnvalidated || l.cc.Read(e, l.epoch) == sw
		}
		if !mutReadUnvalidated && hop%readCheck == 0 && l.cc.Read(e, l.epoch) != sw {
			return false, false
		}
		curr = next
	}
}

// help helps the operation announced on ver.Target (lines 38-58 of
// Figure 7).
func (l *List) help(e shmem.Ctx, ver helping.Version) {
	vw := helping.PackVersion(ver)
	pid := l.eng.AnnPid(e, ver.Target)    // line 38
	key := e.Load(l.parAddr(pid, parKey)) // line 39
	curr := l.findpos(e, key, ver, pid)   // line 40
	if e.Load(l.eng.VAddr()) != vw {      // line 41
		return
	}
	nextp := arena.Ref(l.cc.Read(e, l.ar.NextAddr(curr))) // line 42
	if e.Load(l.eng.VAddr()) != vw {                      // line 43: guards the dereference of nextp
		return
	}
	nextnextp := arena.Ref(l.cc.Read(e, l.ar.NextAddr(nextp))) // line 44
	nextkey := e.Load(l.ar.KeyAddr(nextp))                     // line 45
	if l.cc.Read(e, l.eng.RvAddr(pid)) != RvPending {          // line 46
		return
	}
	// won: this helper's own CCAS made the round's structural change
	// (read only by the mut_epoch_winner_only mutant).
	var won bool
	switch e.Load(l.parAddr(pid, parOp)) { // line 47
	case opIns:
		newNode := arena.Ref(l.cc.Read(e, l.parAddr(pid, parNode))) // line 49
		if nextkey != key {                                         // line 48
			l.cc.Exec(e, l.eng.VAddr(), vw, l.ar.NextAddr(newNode), uint64(arena.NIL), uint64(nextp)) // line 50
			if l.cc.Exec(e, l.eng.VAddr(), vw, l.ar.NextAddr(curr), uint64(nextp), uint64(newNode)) { // line 51
				won = true
				if e.Traced() {
					e.Note("splice", trace.I("p", int64(pid)), trace.I("key", int64(key)))
				}
			}
		} else if arena.Ref(l.cc.Read(e, l.ar.NextAddr(newNode))) == arena.NIL {
			// True duplicate. Distinguishing it from "our own node
			// was just spliced by another helper" is safe *within
			// the deciding round*: the new node's next pointer is
			// round-stable (only this operation's line 50 moves it
			// off NIL, and an operation always completes inside the
			// round that decides it — the version word cannot
			// advance until some helper has finished the case, and
			// the first finisher runs it to completion). A stale
			// helper's Rv CCAS fails on the version check.
			l.cc.Exec(e, l.eng.VAddr(), vw, l.eng.RvAddr(pid), RvPending, RvFalse)
			return
		}
		// nextkey == key with new->next != NIL: our own splice is
		// already done; fall through to line 58.
	case opDel:
		if nextkey == key { // line 52
			l.cc.Exec(e, l.eng.VAddr(), vw, l.parAddr(pid, parNode), uint64(arena.NIL), uint64(nextp))  // line 53
			if l.cc.Exec(e, l.eng.VAddr(), vw, l.ar.NextAddr(curr), uint64(nextp), uint64(nextnextp)) { // line 54
				won = true
				if e.Traced() {
					e.Note("unsplice", trace.I("p", int64(pid)), trace.I("key", int64(key)))
				}
			}
		} else if arena.Ref(l.cc.Read(e, l.parAddr(pid, parNode))) == arena.NIL {
			// True absence, distinguished from "we just unspliced
			// it" by Par[pid].node, which is round-stable (only
			// line 53 sets it, version-guarded).
			l.cc.Exec(e, l.eng.VAddr(), vw, l.eng.RvAddr(pid), RvPending, RvFalse)
			return
		}
		// nextkey != key with Par[pid].node set: the unsplice is
		// already done; fall through to line 58.
	case opSch:
		if nextkey != key { // line 55
			l.cc.Exec(e, l.eng.VAddr(), vw, l.eng.RvAddr(pid), RvPending, RvFalse) // line 56
			return                                                                 // line 57
		}
		l.cc.Exec(e, l.eng.VAddr(), vw, l.eng.RvAddr(pid), RvPending, RvTrue) // line 58
		return
	default:
		// Guard row (pid == N) or a stale announce: all subsequent
		// CCAS operations would fail on the version check anyway.
		return
	}
	// The splice or unsplice is done, by this helper or an earlier one
	// of the round. Every helper that gets here bumps S before Rv: the
	// one whose CCAS made the change may have been preempted since, and
	// Rv must not report (letting V advance and the owner free a node)
	// while S still names an older round.
	if !mutEpochAfterRv && (!mutEpochWinnerOnly || won) {
		l.bumpEpoch(e, vw, ver.Cnt)
	}
	l.cc.Exec(e, l.eng.VAddr(), vw, l.eng.RvAddr(pid), RvPending, RvTrue) // line 58
	if mutEpochAfterRv {
		l.bumpEpoch(e, vw, ver.Cnt)
	}
}

// bumpEpoch sets S to cnt, the count of the round vw, unless it already
// holds it. Every helper of the round writes the same value, so the bump is
// idempotent, and a stale helper's CCAS fails on V.
func (l *List) bumpEpoch(e shmem.Ctx, vw, cnt uint64) {
	if s := l.cc.Read(e, l.epoch); s != cnt {
		l.cc.Exec(e, l.eng.VAddr(), vw, l.epoch, s, cnt)
	}
}

// findpos resumes the scan for the operation of process help on the round
// ver, returning the predecessor of the first node with key >= key (lines
// 30-37 of Figure 7). The checkpoint Ann[ver.Target].ptr advances by CCAS —
// every Stride nodes under the Section 3.4 optimization.
func (l *List) findpos(e shmem.Ctx, key uint64, ver helping.Version, help int) arena.Ref {
	vw := helping.PackVersion(ver)
	for l.cc.Read(e, l.eng.RvAddr(help)) == RvPending { // line 30
		curr := arena.Ref(l.cc.Read(e, l.annPtrAddr(ver.Target))) // line 31
		// Walk up to stride nodes privately before publishing the
		// checkpoint.
		probe := curr
		var nextp arena.Ref
		var nextkey uint64
		for hop := 0; hop < l.stride; hop++ {
			nextp = arena.Ref(l.cc.Read(e, l.ar.NextAddr(probe))) // line 32
			if e.Load(l.eng.VAddr()) != vw {                      // line 33
				return l.first
			}
			nextkey = e.Load(l.ar.KeyAddr(nextp)) // line 34
			if nextkey >= key || nextp == l.last {
				break
			}
			probe = nextp
		}
		if l.cc.Read(e, l.eng.RvAddr(help)) != RvPending || nextkey >= key || nextp == l.last { // line 35
			if probe != curr {
				// Publish the partial progress so other helpers
				// resume close to the position (harmless if it
				// fails).
				l.cc.Exec(e, l.eng.VAddr(), vw, l.annPtrAddr(ver.Target), uint64(curr), uint64(probe))
			}
			return probe
		}
		l.cc.Exec(e, l.eng.VAddr(), vw, l.annPtrAddr(ver.Target), uint64(curr), uint64(nextp)) // line 36
	}
	return l.first // line 37
}

// SeedAscending bulk-loads the list at setup time (see unilist.SeedAscending).
func (l *List) SeedAscending(keys []uint64) error {
	prev := l.first
	for i, k := range keys {
		if k == KeyMin || k == KeyMax {
			return fmt.Errorf("multilist: seed key %#x is reserved", k)
		}
		if i > 0 && keys[i-1] >= k {
			return fmt.Errorf("multilist: seed keys not strictly ascending at %d", i)
		}
		node := l.ar.Static()
		l.mem.Poke(l.ar.KeyAddr(node), k)
		l.mem.Poke(l.ar.ValAddr(node), k)
		l.cc.InitWord(l.mem, l.ar.NextAddr(node), uint64(l.last))
		l.cc.InitWord(l.mem, l.ar.NextAddr(prev), uint64(node))
		prev = node
	}
	return nil
}

// Snapshot returns the keys currently in the list, in order (tests and
// checkers; no simulated time).
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
	r := arena.Ref(l.cc.Logical(l.mem.Peek(l.ar.NextAddr(l.first))))
	for r != l.last && r != arena.NIL {
		keys = append(keys, l.mem.Peek(l.ar.KeyAddr(r)))
		if len(keys)-base > l.ar.Capacity() {
			panic("multilist: list cycle detected")
		}
		r = arena.Ref(l.cc.Logical(l.mem.Peek(l.ar.NextAddr(r))))
	}
	return keys
}

func (l *List) checkKey(key uint64) {
	if key == KeyMin || key == KeyMax {
		panic(fmt.Sprintf("multilist: key %#x is reserved for sentinels", key))
	}
	if key > l.cc.MaxLogical() {
		panic(fmt.Sprintf("multilist: key %#x exceeds CCAS logical capacity", key))
	}
}
