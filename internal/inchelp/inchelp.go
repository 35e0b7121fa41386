// Package inchelp factors out the paper's incremental-helping protocol for
// priority-based uniprocessors (Figure 2; lines 15-23 of Figure 5).
//
// The protocol needs one announce variable per processor: before announcing
// its own operation, a process helps any previously-announced operation to
// completion, so at most one operation is ever pending and each process
// helps at most one other. The uniprocessor linked list (internal/core/
// unilist) transcribes the protocol inline to stay close to Figure 5; the
// queue, stack and other "linear" objects the paper's Section 4 describes
// ("just as straightforward to implement as linked lists") share this
// engine instead.
package inchelp

import (
	"fmt"

	"repro/internal/shmem"
	"repro/internal/trace"
)

// Rv values shared by all incremental-helping objects.
const (
	// RvPending: the operation has not completed.
	RvPending uint64 = 0
	// RvFalse: the operation completed and reports false.
	RvFalse uint64 = 1
	// RvTrue: the operation completed and reports true.
	RvTrue uint64 = 2
)

// Config configures an Engine.
type Config struct {
	// Procs is N, the number of process slots.
	Procs int
	// Help executes (or helps) process pid's announced operation. It
	// must be idempotent under the priority model and must eventually
	// set Rv[pid] nonzero.
	Help func(e shmem.Ctx, pid int)
	// OnAnnounce optionally resets per-operation scan state (the list's
	// Ann.ptr := &First) just before the announce write.
	OnAnnounce func(e shmem.Ctx)
}

// Engine is the shared announce/return-value state.
type Engine struct {
	cfg    Config
	annPid shmem.Addr
	rv     shmem.Rows
}

// New allocates the engine's shared variables.
func New(m shmem.Memory, cfg Config) (*Engine, error) {
	if cfg.Procs < 1 {
		return nil, fmt.Errorf("inchelp: process count %d out of range", cfg.Procs)
	}
	if cfg.Help == nil {
		return nil, fmt.Errorf("inchelp: Help is required")
	}
	annPid, err := m.Alloc("AnnPid", 1)
	if err != nil {
		return nil, fmt.Errorf("inchelp: %w", err)
	}
	rv, err := shmem.NewRows(m, "Rv", cfg.Procs+1, 1)
	if err != nil {
		return nil, fmt.Errorf("inchelp: %w", err)
	}
	g := &Engine{cfg: cfg, annPid: annPid, rv: rv}
	m.Poke(annPid, uint64(cfg.Procs)) // N: nothing announced
	return g, nil
}

// AnnPidAddr exposes the announce word for checkers.
func (g *Engine) AnnPidAddr() shmem.Addr { return g.annPid }

// RvAddr returns the address of Rv[p].
func (g *Engine) RvAddr(p int) shmem.Addr { return g.rv.Row(p) }

// Rv reads Rv[p] with simulated time charged.
func (g *Engine) Rv(e shmem.Ctx, p int) uint64 { return e.Load(g.RvAddr(p)) }

// SetRv writes Rv[p] (helpers use plain stores under the uniprocessor
// priority model, as in Figure 5).
func (g *Engine) SetRv(e shmem.Ctx, p int, v uint64) { e.Store(g.RvAddr(p), v) }

// DoOp drives the calling process's announced operation: help any
// previously-announced operation, announce ours, execute it, clear the
// announcement (lines 15-23 of Figure 5). The caller must have published
// its Par record first; the operation's result is left in Rv[slot].
func (g *Engine) DoOp(e shmem.Ctx) {
	p := e.Slot()
	if p < 0 || p >= g.cfg.Procs {
		panic(fmt.Sprintf("inchelp: slot %d out of range [0,%d)", p, g.cfg.Procs))
	}
	if e.Traced() {
		e.Note("invoke", trace.I("p", int64(p)))
	}
	pid := int(e.Load(g.annPid))                        // line 15
	if pid < g.cfg.Procs && g.Rv(e, pid) == RvPending { // line 16
		e.NoteHelp(pid)
		g.cfg.Help(e, pid) // line 17
	}
	e.Store(g.RvAddr(p), RvPending) // line 18
	if g.cfg.OnAnnounce != nil {
		g.cfg.OnAnnounce(e) // line 19 (object scan-state reset)
	}
	e.Store(g.annPid, uint64(p)) // line 20
	if e.Traced() {
		e.Note("announce", trace.I("p", int64(p)))
	}
	g.cfg.Help(e, p) // line 21
	if g.cfg.OnAnnounce != nil {
		g.cfg.OnAnnounce(e) // line 22
	}
	e.Store(g.annPid, uint64(g.cfg.Procs)) // line 23
	if e.Traced() {
		e.Note("response", trace.I("p", int64(p)))
	}
}
