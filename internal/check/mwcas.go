package check

import (
	"fmt"

	"repro/internal/core/unimwcas"
	"repro/internal/shmem"
)

// mwcasOp is one in-flight MWCAS operation.
type mwcasOp struct {
	active    bool
	addrs     []shmem.Addr
	old, new  []uint32
	beginStep uint64
	committed bool
}

// mwcasOpAt returns slot p's in-flight op, or nil if none is registered.
func (c *MWCASChecker) mwcasOpAt(p int) *mwcasOp {
	if p < 0 || p >= len(c.ops) || !c.ops[p].active {
		return nil
	}
	return &c.ops[p]
}

// MWCASChecker validates a unimwcas.Object against the atomic multi-word
// compare-and-swap specification.
//
// Shadow model: a map word -> value, updated atomically at the linearization
// point of each successful MWCAS — the CAS of Status[p] from 0 (pending) to
// 2 (valid) at line 15 of Figure 3.
//
// Continuous invariant: after every write, every tracked word's current
// value per the paper's Val definition equals its shadow value. (The whole
// point of the three-phase protocol is that only the commit CAS changes
// current values.)
//
// Per-operation validation: a successful MWCAS must have observed all old
// values at its commit instant; a failed MWCAS must have some instant within
// its window at which at least one word differed from its expected old
// value; a Read must return the shadow value the word had at some instant
// within the Read's window.
type MWCASChecker struct {
	obj     *unimwcas.Object
	mem     *shmem.Mem
	tracked []shmem.Addr
	hist    *wordHist
	ops     []mwcasOp // dense per-slot in-flight ops; buffers reused across ops
	errs    []error
	maxErrs int
}

// NewMWCASChecker creates a checker for obj, tracking the given application
// words. Install it before the run starts; the tracked words must already
// hold their initial values.
func NewMWCASChecker(obj *unimwcas.Object, m *shmem.Mem, tracked []shmem.Addr) *MWCASChecker {
	c := &MWCASChecker{
		obj:     obj,
		mem:     m,
		tracked: tracked,
		hist:    newWordHist(),
		maxErrs: 20,
	}
	for _, a := range tracked {
		c.hist.seed(int(a), obj.Val(a))
	}
	m.AddObserver(c)
	return c
}

var _ shmem.Observer = (*MWCASChecker)(nil)

// OnWrite implements shmem.Observer.
func (c *MWCASChecker) OnWrite(ev shmem.WriteEvent) {
	if len(c.errs) >= c.maxErrs {
		return
	}
	// Linearization point: CAS Status[p] 0 -> 2.
	if ev.Kind == shmem.OpCAS && ev.Old == unimwcas.StatusPending && ev.New == unimwcas.StatusValid {
		if p, ok := c.statusIndex(ev.Addr); ok {
			c.commit(p, ev.Step)
		}
	}
	// Continuous invariant: concrete Val == shadow for all tracked words.
	for _, a := range c.tracked {
		shadow, err := c.hist.current(int(a))
		if err != nil {
			c.fail(err)
			continue
		}
		if got := c.obj.Val(a); got != shadow {
			c.fail(fmt.Errorf(
				"check: step %d (proc %d, %s %s): Val(%s) = %d, shadow = %d",
				ev.Step, ev.Proc, ev.Kind, c.mem.Name(ev.Addr), c.mem.Name(a), got, shadow))
		}
	}
}

// statusIndex maps an address to a Status[] index, if it is one.
func (c *MWCASChecker) statusIndex(a shmem.Addr) (int, bool) {
	for p := 0; p < c.obj.Procs(); p++ {
		if c.obj.StatusAddr(p) == a {
			return p, true
		}
	}
	return 0, false
}

// commit applies process p's registered operation to the shadow.
func (c *MWCASChecker) commit(p int, step uint64) {
	op := c.mwcasOpAt(p)
	if op == nil {
		c.fail(fmt.Errorf("check: step %d: commit by process %d with no registered operation", step, p))
		return
	}
	if op.committed {
		c.fail(fmt.Errorf("check: step %d: process %d committed twice", step, p))
		return
	}
	op.committed = true
	for i, a := range op.addrs {
		shadow, err := c.hist.current(int(a))
		if err != nil {
			c.fail(err)
			return
		}
		if shadow != op.old[i] {
			c.fail(fmt.Errorf(
				"check: step %d: process %d committed MWCAS but %s had shadow %d, expected old %d",
				step, p, c.mem.Name(a), shadow, op.old[i]))
		}
		c.hist.set(int(a), step, op.new[i])
	}
}

// BeginOp registers process p's next MWCAS. Call it immediately before
// invoking MWCAS from inside the process body.
func (c *MWCASChecker) BeginOp(p int, addrs []shmem.Addr, old, new []uint32) {
	for len(c.ops) <= p {
		c.ops = append(c.ops, mwcasOp{})
	}
	op := &c.ops[p]
	op.addrs = append(op.addrs[:0], addrs...)
	op.old = append(op.old[:0], old...)
	op.new = append(op.new[:0], new...)
	op.beginStep = c.mem.Steps()
	op.active, op.committed = true, false
}

// EndOp validates process p's completed MWCAS against its reported result.
// Call it immediately after MWCAS returns, passing its return value.
func (c *MWCASChecker) EndOp(p int, ok bool) {
	op := c.mwcasOpAt(p)
	if op == nil {
		c.fail(fmt.Errorf("check: EndOp(%d) with no registered operation", p))
		return
	}
	op.active = false
	end := c.mem.Steps()
	if ok {
		if !op.committed {
			c.fail(fmt.Errorf("check: process %d: MWCAS returned true but never committed", p))
		}
		return
	}
	if op.committed {
		c.fail(fmt.Errorf("check: process %d: MWCAS returned false but committed", p))
		return
	}
	// A failed MWCAS must be linearizable: at some instant of its window,
	// some word must have differed from its expected old value.
	addrs := make([]int, len(op.addrs))
	for i, a := range op.addrs {
		addrs[i] = int(a)
	}
	for _, step := range c.hist.changesIn(addrs, op.beginStep, end) {
		for i, a := range addrs {
			v, err := c.hist.at(a, step)
			if err != nil {
				c.fail(err)
				return
			}
			if v != op.old[i] {
				return // found a legal linearization instant
			}
		}
	}
	c.fail(fmt.Errorf(
		"check: process %d: MWCAS returned false but all words matched their expected old values throughout [%d,%d] (not linearizable)",
		p, op.beginStep, end))
}

// readWindow brackets a Read for validation.
type readWindow struct {
	addr  shmem.Addr
	begin uint64
}

// BeginRead marks the start of a Read by some process on word a and returns
// a token for EndRead.
func (c *MWCASChecker) BeginRead(a shmem.Addr) readWindow {
	return readWindow{addr: a, begin: c.mem.Steps()}
}

// EndRead validates the value returned by a Read: it must equal the word's
// shadow value at some instant within the Read's window.
func (c *MWCASChecker) EndRead(w readWindow, got uint32) {
	end := c.mem.Steps()
	for _, step := range c.hist.changesIn([]int{int(w.addr)}, w.begin, end) {
		v, err := c.hist.at(int(w.addr), step)
		if err != nil {
			c.fail(err)
			return
		}
		if v == got {
			return
		}
	}
	c.fail(fmt.Errorf(
		"check: Read(%s) returned %d, which was never the word's value during [%d,%d]",
		c.mem.Name(w.addr), got, w.begin, end))
}

// Err returns the accumulated violations, nil if the run was clean.
func (c *MWCASChecker) Err() error {
	if len(c.errs) == 0 {
		return nil
	}
	msg := fmt.Sprintf("check: %d violations; first: %v", len(c.errs), c.errs[0])
	if len(c.errs) > 1 {
		msg += fmt.Sprintf("; last: %v", c.errs[len(c.errs)-1])
	}
	return fmt.Errorf("%s", msg)
}

func (c *MWCASChecker) fail(err error) {
	if len(c.errs) < c.maxErrs {
		c.errs = append(c.errs, err)
	}
}
