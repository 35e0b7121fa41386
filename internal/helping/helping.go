// Package helping implements the paper's multiprocessor helping schemes:
// cyclic helping and priority helping (Sections 1 and 3.1), layered over
// per-processor incremental helping.
//
// The processors form a logical ring. A shared version word V holds the help
// counter: V.cnt is the version number (assumed not to cycle during any
// operation), V.target is the processor currently designated for help, and
// V.needhelp says whether that processor had a pending announced operation
// at the moment the counter advanced. Because the needhelp decision is fixed
// atomically by the CAS that advances the counter, processes can never
// disagree about whether the target should be helped.
//
// With cyclic helping the counter advances around the ring, so an operation
// completes after at most two traversals: one to drain a previously
// announced lower-priority operation on the caller's processor, one to drive
// the caller's own operation — Θ(2·P·T). With priority helping the counter
// always advances to the processor with the highest-priority pending
// operation (an O(P) scan), and announce entries carry the priority of the
// currently-running process on each processor — the priority-inheritance
// analogue the paper describes: a process helping a lower-priority operation
// on its own processor re-publishes its own priority.
//
// The engine is object-agnostic: the multiprocessor MWCAS (Figure 6) and
// linked list (Figure 7) plug in their Help routines and announce actions.
package helping

import (
	"fmt"

	"repro/internal/prim"
	"repro/internal/shmem"
	"repro/internal/trace"
)

// Mode selects the counter-advance policy.
type Mode int

const (
	// Cyclic advances the help counter around the logical ring of
	// processors (the paper's default scheme).
	Cyclic Mode = iota + 1
	// Priority advances the help counter to the processor with the
	// highest-priority pending operation.
	Priority
)

// String returns the mode name.
func (m Mode) String() string {
	switch m {
	case Cyclic:
		return "cyclic"
	case Priority:
		return "priority"
	default:
		return fmt.Sprintf("mode(%d)", int(m))
	}
}

// Version word layout: cnt in the low bits, then target, then needhelp.
const (
	cntBits    = 46
	targetBits = 8

	targetShift   = cntBits
	needhelpShift = cntBits + targetBits

	cntMask    = (uint64(1) << cntBits) - 1
	targetMask = (uint64(1) << targetBits) - 1
)

// MaxProcessors is the largest supported processor count.
const MaxProcessors = 1 << targetBits

// Version is the decoded form of the shared version word V.
type Version struct {
	// Cnt is the version number (V.cnt). It does not cycle during any
	// operation (46 bits).
	Cnt uint64
	// Target is the processor the help counter points to (V.cnt mod P
	// under cyclic helping; the chosen processor under priority helping).
	Target int
	// Needhelp reports whether Target had a pending announced operation
	// when the counter advanced to it.
	Needhelp bool
}

// PackVersion encodes a Version.
func PackVersion(v Version) uint64 {
	w := v.Cnt&cntMask | uint64(v.Target)&targetMask<<targetShift
	if v.Needhelp {
		w |= 1 << needhelpShift
	}
	return w
}

// UnpackVersion decodes a version word.
func UnpackVersion(w uint64) Version {
	return Version{
		Cnt:      w & cntMask,
		Target:   int(w >> targetShift & targetMask),
		Needhelp: w>>needhelpShift&1 == 1,
	}
}

// Config configures an Engine.
type Config struct {
	// Processors is P.
	Processors int
	// Procs is N, the number of algorithm-level process slots.
	Procs int
	// Mode selects cyclic or priority helping.
	Mode Mode
	// CC is the CCAS implementation shared with the object.
	CC prim.Impl
	// Done reports whether an Rv value means "operation complete" (the
	// MWCAS object uses rv >= 2, the list uses rv != 0).
	Done func(rv uint64) bool
	// Help executes one helping step for the operation announced on
	// ver.Target. It must be idempotent under CCAS guards.
	Help func(e shmem.Ctx, ver Version)
	// OnAnnounce publishes the calling process's operation parameters
	// into the object's announce record for the caller's processor
	// (e.g. the list's Ann[mypr].ptr := &First). The engine itself
	// writes the pid and, under priority helping, the priority. Nil
	// means the object has nothing to publish.
	OnAnnounce func(e shmem.Ctx)
	// OneRound, when set, skips the first helping round. This is the
	// real-time optimization of reference [1]: under a real-time
	// scheduler an operation needs only one traversal of the helping
	// ring. It is only sound when the workload guarantees no pending
	// lower-priority operation can exist on the caller's processor at
	// operation start (e.g. run-to-completion jobs that never begin an
	// operation they cannot finish before relinquishing).
	OneRound bool
}

// Engine carries the shared helping state: the version word V and the
// per-processor announce arrays.
type Engine struct {
	cfg Config
	mem shmem.Memory

	v       shmem.Addr // version word V
	annPid  shmem.Rows // Ann[R].pid (P rows)
	annPrio shmem.Rows // Ann[R].prio (P rows; priority helping only)
	rv      shmem.Rows // Rv[0..N]; Rv[N] is permanently "done"

	doneRv uint64 // the value stored in Rv[N]
}

// New allocates an engine. doneRv is the Rv value meaning "complete" that is
// permanently stored in Rv[N] (2 for both of the paper's objects).
func New(m shmem.Memory, cfg Config, doneRv uint64) (*Engine, error) {
	if cfg.Processors < 1 || cfg.Processors > MaxProcessors {
		return nil, fmt.Errorf("helping: processor count %d out of range [1,%d]", cfg.Processors, MaxProcessors)
	}
	if cfg.Procs < 1 {
		return nil, fmt.Errorf("helping: process count %d out of range", cfg.Procs)
	}
	if cfg.Mode != Cyclic && cfg.Mode != Priority {
		return nil, fmt.Errorf("helping: invalid mode %v", cfg.Mode)
	}
	if cfg.CC == nil || cfg.Done == nil || cfg.Help == nil {
		return nil, fmt.Errorf("helping: CC, Done and Help are required")
	}
	v, err := m.Alloc("V", 1)
	if err != nil {
		return nil, fmt.Errorf("helping: %w", err)
	}
	annPid, err := shmem.NewRows(m, "AnnPid", cfg.Processors, 1)
	if err != nil {
		return nil, fmt.Errorf("helping: %w", err)
	}
	annPrio, err := shmem.NewRows(m, "AnnPrio", cfg.Processors, 1)
	if err != nil {
		return nil, fmt.Errorf("helping: %w", err)
	}
	rv, err := shmem.NewRows(m, "Rv", cfg.Procs+1, 1)
	if err != nil {
		return nil, fmt.Errorf("helping: %w", err)
	}
	g := &Engine{cfg: cfg, mem: m, v: v, annPid: annPid, annPrio: annPrio, rv: rv, doneRv: doneRv}
	m.Poke(v, PackVersion(Version{}))
	for r := 0; r < cfg.Processors; r++ {
		m.Poke(g.annPidAddr(r), uint64(cfg.Procs)) // Ann[R] = N: nothing announced
	}
	cfg.CC.InitWord(m, g.RvAddr(cfg.Procs), doneRv) // Rv[N] is always "done"
	return g, nil
}

// VAddr returns the address of the version word, for the object's CCAS
// calls.
func (g *Engine) VAddr() shmem.Addr { return g.v }

// RvAddr returns the address of Rv[pid].
func (g *Engine) RvAddr(pid int) shmem.Addr { return g.rv.Row(pid) }

// AnnPid returns the announced process on processor r (N if none), read
// with simulated time charged.
func (g *Engine) AnnPid(e shmem.Ctx, r int) int {
	return int(e.Load(g.annPidAddr(r)))
}

// PeekRv returns the logical Rv[pid] without charging time (checkers).
func (g *Engine) PeekRv(pid int) uint64 {
	return g.cfg.CC.Logical(g.mem.Peek(g.RvAddr(pid)))
}

// Procs returns N.
func (g *Engine) Procs() int { return g.cfg.Procs }

// Processors returns P.
func (g *Engine) Processors() int { return g.cfg.Processors }

// Mode returns the configured helping mode.
func (g *Engine) Mode() Mode { return g.cfg.Mode }

func (g *Engine) annPidAddr(r int) shmem.Addr  { return g.annPid.Row(r) }
func (g *Engine) annPrioAddr(r int) shmem.Addr { return g.annPrio.Row(r) }

// DoOp drives the calling process's announced-parameters operation to
// completion: it performs one round of helping to drain any
// previously-announced operation on its processor, announces, then helps
// until its own operation completes (lines 3-15 of Figure 6 / 16-29 of
// Figure 7). The caller must have published its operation parameters and
// reset Rv[p] before calling. The operation's span runs from the "invoke"
// annotation to the "response" one.
func (g *Engine) DoOp(e shmem.Ctx) {
	if e.Traced() {
		e.Note("invoke", trace.I("p", int64(e.Slot())))
	}
	g.Drive(e)
	if e.Traced() {
		e.Note("response", trace.I("p", int64(e.Slot())))
	}
}

// Drive is DoOp without the span annotations, for an operation that opened
// its span before reaching the protocol (the multiprocessor list's Search
// tries a read-only walk first) and closes it itself.
func (g *Engine) Drive(e shmem.Ctx) {
	mypr := e.CPU()
	p := e.Slot()
	if p >= g.cfg.Procs {
		panic(fmt.Sprintf("helping: slot %d out of range [0,%d)", p, g.cfg.Procs))
	}
	for i := 0; i < 2; i++ { // line 3
		if i == 0 && g.cfg.OneRound {
			g.announce(e, mypr, p)
			continue
		}
		pid := int(e.Load(g.annPidAddr(mypr))) // line 4
		if pid < g.cfg.Procs {                 // line 5
			if g.cfg.Mode == Priority && i == 0 {
				// Priority inheritance: while helping a
				// lower-priority process on our processor,
				// publish our own priority so helpers
				// elsewhere order us correctly.
				e.Store(g.annPrioAddr(mypr), prioWord(e.Prio()))
			}
			for { // line 6
				ver := UnpackVersion(e.Load(g.v)) // line 7
				if g.cfg.Done(g.cfg.CC.Read(e, g.RvAddr(pid))) &&
					(ver.Target != mypr || !ver.Needhelp) { // line 8
					break
				}
				if ver.Needhelp { // line 9
					if e.Traced() {
						e.Note("help ring", trace.I("target", int64(ver.Target)), trace.I("ver", int64(ver.Cnt)))
					}
					// Observability only (Peek: no simulated time):
					// the helped operation is whatever is announced
					// on the target processor right now. NoteHelp
					// counts it and emits the help causality edge.
					if hp := int(g.mem.Peek(g.annPidAddr(ver.Target))); hp < g.cfg.Procs {
						e.NoteHelp(hp)
					}
					g.cfg.Help(e, ver)
				}
				g.Advance(e, ver) // lines 10-13
			}
		}
		g.announce(e, mypr, p) // line 14
	}
	e.Store(g.annPidAddr(mypr), uint64(g.cfg.Procs)) // line 15
}

// announce publishes process p as the pending operation on processor mypr.
func (g *Engine) announce(e shmem.Ctx, mypr, p int) {
	if g.cfg.OnAnnounce != nil {
		g.cfg.OnAnnounce(e)
	}
	if g.cfg.Mode == Priority {
		e.Store(g.annPrioAddr(mypr), prioWord(e.Prio()))
	}
	e.Store(g.annPidAddr(mypr), uint64(p))
	if e.Traced() {
		e.Note("announce", trace.I("p", int64(p)))
	}
}

// Advance moves the help counter one step (lines 10-13 of Figure 6). Under
// cyclic helping the next target is the next processor on the ring; under
// priority helping it is the processor with the highest-priority pending
// operation. The needhelp bit is fixed atomically by the CAS.
func (g *Engine) Advance(e shmem.Ctx, ver Version) {
	var nextTarget int
	var needhelp bool
	switch g.cfg.Mode {
	case Cyclic:
		nextTarget = (ver.Target + 1) % g.cfg.Processors
		nxthelp := int(e.Load(g.annPidAddr(nextTarget))) // line 10
		needhelp = nxthelp < g.cfg.Procs && !g.cfg.Done(g.cfg.CC.Read(e, g.RvAddr(nxthelp)))
	case Priority:
		// O(P) scan for the highest-priority pending operation.
		best := -1
		var bestPrio uint64
		for r := 0; r < g.cfg.Processors; r++ {
			pid := int(e.Load(g.annPidAddr(r)))
			if pid >= g.cfg.Procs {
				continue
			}
			if g.cfg.Done(g.cfg.CC.Read(e, g.RvAddr(pid))) {
				continue
			}
			prio := e.Load(g.annPrioAddr(r))
			if best < 0 || prio > bestPrio {
				best, bestPrio = r, prio
			}
		}
		if best >= 0 {
			nextTarget, needhelp = best, true
		} else {
			nextTarget, needhelp = (ver.Target+1)%g.cfg.Processors, false
		}
	}
	next := Version{Cnt: (ver.Cnt + 1) & cntMask, Target: nextTarget, Needhelp: needhelp}
	if e.CAS(g.v, PackVersion(ver), PackVersion(next)) { // lines 11-13
		if e.Traced() {
			e.Note("advance ring",
				trace.I("ver", int64(next.Cnt)),
				trace.I("target", int64(next.Target)),
				trace.B("needhelp", next.Needhelp))
		}
	}
	prim.AfterAdvance(g.cfg.CC, e)
}

// prioWord encodes a scheduler priority as an unsigned announce word.
func prioWord(p shmem.Priority) uint64 {
	if p < 0 {
		panic(fmt.Sprintf("helping: negative priority %d not supported under priority helping", p))
	}
	return uint64(p)
}
