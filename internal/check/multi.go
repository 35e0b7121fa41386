package check

import (
	"fmt"
	"sort"

	"repro/internal/core/multimwcas"
	"repro/internal/shmem"
)

// MultiMWCASChecker validates a multimwcas.Object against the atomic MWCAS
// specification.
//
// Linearization structure: all mutations of application words happen inside
// helping rounds, one announced operation per round, so words are stable
// from round start until the operation's swap phase. The operation
// linearizes at the CCAS that moves Rv[p] from 0 (comparing) to 1
// (swapping) — success — or from 0 to 3 — failure. The checker applies the
// registered operation to its shadow at the 0->1 event (verifying all old
// values) and verifies a mismatch exists at the 0->3 event. The continuous
// invariant — concrete logical values equal the shadow — is checked at
// every advance of the version word V, i.e. at every round boundary.
type MultiMWCASChecker struct {
	obj     *multimwcas.Object
	mem     *shmem.Mem
	tracked []shmem.Addr
	shadow  map[shmem.Addr]uint64
	ops     []multiOp // dense per-slot in-flight ops; buffers reused across ops
	rvIndex map[shmem.Addr]int
	vAddr   shmem.Addr
	errs    []error
	maxErrs int
	commits int
	fails   int
}

type multiOp struct {
	active    bool
	addrs     []shmem.Addr
	old, new  []uint64
	committed bool
	failed    bool
}

// multiOpAt returns slot p's in-flight op, or nil if none is registered.
func (c *MultiMWCASChecker) multiOpAt(p int) *multiOp {
	if p < 0 || p >= len(c.ops) || !c.ops[p].active {
		return nil
	}
	return &c.ops[p]
}

// NewMultiMWCASChecker creates a checker for obj over n process slots,
// tracking the given application words (which must hold their initial
// values already).
func NewMultiMWCASChecker(obj *multimwcas.Object, m *shmem.Mem, n int, tracked []shmem.Addr) *MultiMWCASChecker {
	c := &MultiMWCASChecker{
		obj:     obj,
		mem:     m,
		tracked: tracked,
		shadow:  make(map[shmem.Addr]uint64),
		rvIndex: make(map[shmem.Addr]int),
		vAddr:   obj.Engine().VAddr(),
		maxErrs: 20,
	}
	for _, a := range tracked {
		c.shadow[a] = obj.Val(a)
	}
	for p := 0; p < n; p++ {
		c.rvIndex[obj.RvAddr(p)] = p
	}
	m.AddObserver(c)
	return c
}

var _ shmem.Observer = (*MultiMWCASChecker)(nil)

// OnWrite implements shmem.Observer.
func (c *MultiMWCASChecker) OnWrite(ev shmem.WriteEvent) {
	if len(c.errs) >= c.maxErrs {
		return
	}
	if ev.Addr == c.vAddr && ev.Kind == shmem.OpCAS {
		// Round boundary: concrete state must equal the shadow.
		for _, a := range c.tracked {
			if got := c.obj.Val(a); got != c.shadow[a] {
				c.fail(fmt.Errorf("check: step %d: round boundary: word %s = %d, shadow = %d",
					ev.Step, c.mem.Name(a), got, c.shadow[a]))
			}
		}
		return
	}
	p, isRv := c.rvIndex[ev.Addr]
	if !isRv || ev.Kind != shmem.OpCCAS && ev.Kind != shmem.OpCAS {
		return
	}
	// Decode the logical transition; raw values include tag bits under
	// the tagged representation.
	cc := c.obj.CC()
	from, to := cc.Logical(ev.Old), cc.Logical(ev.New)
	switch {
	case from == multimwcas.RvComparing && to == multimwcas.RvSwapping:
		c.commit(p, ev.Step)
	case from == multimwcas.RvComparing && to == multimwcas.RvFalse:
		c.failOp(p, ev.Step)
	}
}

func (c *MultiMWCASChecker) commit(p int, step uint64) {
	op := c.multiOpAt(p)
	if op == nil {
		c.fail(fmt.Errorf("check: step %d: commit for process %d with no registered op", step, p))
		return
	}
	if op.committed || op.failed {
		c.fail(fmt.Errorf("check: step %d: process %d decided twice", step, p))
		return
	}
	op.committed = true
	c.commits++
	for i, a := range op.addrs {
		if c.shadow[a] != op.old[i] {
			c.fail(fmt.Errorf("check: step %d: process %d committed but %s shadow = %d, expected old %d",
				step, p, c.mem.Name(a), c.shadow[a], op.old[i]))
		}
		c.shadow[a] = op.new[i]
	}
}

func (c *MultiMWCASChecker) failOp(p int, step uint64) {
	op := c.multiOpAt(p)
	if op == nil {
		c.fail(fmt.Errorf("check: step %d: failure for process %d with no registered op", step, p))
		return
	}
	if op.committed || op.failed {
		c.fail(fmt.Errorf("check: step %d: process %d decided twice", step, p))
		return
	}
	op.failed = true
	c.fails++
	mismatch := false
	for i, a := range op.addrs {
		if c.shadow[a] != op.old[i] {
			mismatch = true
			break
		}
	}
	if !mismatch {
		c.fail(fmt.Errorf("check: step %d: process %d's MWCAS failed but every word matched its expected old value (not linearizable)", step, p))
	}
}

// BeginOp registers process p's next MWCAS.
func (c *MultiMWCASChecker) BeginOp(p int, addrs []shmem.Addr, old, new []uint64) {
	for len(c.ops) <= p {
		c.ops = append(c.ops, multiOp{})
	}
	op := &c.ops[p]
	op.addrs = append(op.addrs[:0], addrs...)
	op.old = append(op.old[:0], old...)
	op.new = append(op.new[:0], new...)
	op.active, op.committed, op.failed = true, false, false
}

// EndOp validates the reported result of process p's completed MWCAS.
func (c *MultiMWCASChecker) EndOp(p int, ok bool) {
	op := c.multiOpAt(p)
	if op == nil {
		c.fail(fmt.Errorf("check: EndOp(%d) with no registered op", p))
		return
	}
	op.active = false
	if ok && !op.committed {
		c.fail(fmt.Errorf("check: process %d returned true but never committed", p))
	}
	if !ok && !op.failed {
		c.fail(fmt.Errorf("check: process %d returned false but no failure event was seen", p))
	}
}

// Commits returns the number of committed operations observed.
func (c *MultiMWCASChecker) Commits() int { return c.commits }

// Fails returns the number of failed operations observed.
func (c *MultiMWCASChecker) Fails() int { return c.fails }

// Err returns accumulated violations.
func (c *MultiMWCASChecker) Err() error {
	if len(c.errs) == 0 {
		return nil
	}
	return fmt.Errorf("check: %d violations; first: %v", len(c.errs), c.errs[0])
}

func (c *MultiMWCASChecker) fail(err error) {
	if len(c.errs) < c.maxErrs {
		c.errs = append(c.errs, err)
	}
}

// Snapshotter is any list whose current key set can be read directly from
// memory (no simulated time). All list implementations in this repository
// provide it.
type Snapshotter interface {
	Snapshot() []uint64
}

// MultiListChecker validates any concurrent sorted-list implementation
// (the multiprocessor wait-free list and the lock-free baselines) by
// structural-event claiming.
//
// Every write event triggers a snapshot; when the key set changes, the diff
// must be exactly one key appearing (an insert's splice) or disappearing (a
// delete's unsplice). Each such structural event is recorded with its step
// and later *claimed* by the operation that reports success: a true Insert
// must claim an add event for its key inside its window; a true Delete a
// remove event. A false Insert requires its key to have been present at
// some instant of its window, a false Delete / Search absent, a true Search
// present — all answered from per-key presence histories derived from the
// structural events. Two concurrent same-key inserts can therefore not both
// return true unless two distinct add events occurred.
type MultiListChecker struct {
	list         Snapshotter
	snap         func(dst []uint64) []uint64
	regLo, regHi shmem.Addr
	hasReg       bool
	mem          *shmem.Mem

	lastKeys []uint64
	buf      []uint64 // spare snapshot buffer, swapped with lastKeys each write
	presence map[uint64][]presenceSpan
	adds     map[uint64][]uint64 // unclaimed add-event steps per key
	removes  map[uint64][]uint64 // unclaimed remove-event steps per key
	ops      []listOp            // dense per-slot in-flight ops
	errs     []error
	maxErrs  int
	events   int
}

type presenceSpan struct {
	step    uint64
	present bool
}

type listOp struct {
	active bool
	kind   uint64 // 1 ins, 2 del, 3 sch (multilist's op codes)
	key    uint64
	begin  uint64
}

// NewMultiListChecker creates a checker; the list must already be seeded.
func NewMultiListChecker(l Snapshotter, m *shmem.Mem) *MultiListChecker {
	c := &MultiListChecker{
		list:     l,
		snap:     snapFunc(l),
		mem:      m,
		presence: make(map[uint64][]presenceSpan),
		adds:     make(map[uint64][]uint64),
		removes:  make(map[uint64][]uint64),
		maxErrs:  20,
	}
	c.regLo, c.regHi, c.hasReg = snapRegion(l)
	c.lastKeys = c.snap(nil)
	for _, k := range c.lastKeys {
		c.presence[k] = []presenceSpan{{step: 0, present: true}}
	}
	m.AddObserver(c)
	return c
}

var _ shmem.Observer = (*MultiListChecker)(nil)

// OnWrite implements shmem.Observer.
func (c *MultiListChecker) OnWrite(ev shmem.WriteEvent) {
	if len(c.errs) >= c.maxErrs {
		return
	}
	if ev.Kind == shmem.OpStore {
		return // protocol stores never change the key set
	}
	if c.hasReg && (ev.Addr < c.regLo || ev.Addr >= c.regHi) {
		return // outside the snapshot region: the key set cannot have changed
	}
	now := c.snap(c.buf[:0])
	added, removed := diffKeys(c.lastKeys, now)
	c.buf, c.lastKeys = c.lastKeys, now
	if len(added)+len(removed) == 0 {
		return
	}
	c.events++
	if len(added)+len(removed) > 1 {
		c.fail(fmt.Errorf("check: step %d: one write changed multiple keys (added %v, removed %v)", ev.Step, added, removed))
		return
	}
	for _, k := range added {
		c.adds[k] = append(c.adds[k], ev.Step)
		c.presence[k] = append(c.presence[k], presenceSpan{step: ev.Step, present: true})
	}
	for _, k := range removed {
		c.removes[k] = append(c.removes[k], ev.Step)
		c.presence[k] = append(c.presence[k], presenceSpan{step: ev.Step, present: false})
	}
}

// diffKeys computes the set difference between two sorted key slices.
func diffKeys(before, after []uint64) (added, removed []uint64) {
	i, j := 0, 0
	for i < len(before) || j < len(after) {
		switch {
		case i >= len(before):
			added = append(added, after[j])
			j++
		case j >= len(after):
			removed = append(removed, before[i])
			i++
		case before[i] == after[j]:
			i++
			j++
		case before[i] < after[j]:
			removed = append(removed, before[i])
			i++
		default:
			added = append(added, after[j])
			j++
		}
	}
	return added, removed
}

// List operation kinds for BeginOp.
const (
	ListIns uint64 = 1
	ListDel uint64 = 2
	ListSch uint64 = 3
)

// BeginOp registers the start of process p's operation.
func (c *MultiListChecker) BeginOp(p int, kind, key uint64) {
	for len(c.ops) <= p {
		c.ops = append(c.ops, listOp{})
	}
	c.ops[p] = listOp{active: true, kind: kind, key: key, begin: c.mem.Steps()}
}

// EndOp validates process p's reported result.
func (c *MultiListChecker) EndOp(p int, got bool) {
	if p < 0 || p >= len(c.ops) || !c.ops[p].active {
		c.fail(fmt.Errorf("check: EndOp(%d) with no registered op", p))
		return
	}
	op := c.ops[p]
	c.ops[p].active = false
	end := c.mem.Steps()
	switch {
	case op.kind == ListIns && got:
		if !c.claim(c.adds, op.key, op.begin, end) {
			c.fail(fmt.Errorf("check: process %d Insert(%d) returned true but no unclaimed add event lies in its window [%d,%d]", p, op.key, op.begin, end))
		}
	case op.kind == ListDel && got:
		if !c.claim(c.removes, op.key, op.begin, end) {
			c.fail(fmt.Errorf("check: process %d Delete(%d) returned true but no unclaimed remove event lies in its window [%d,%d]", p, op.key, op.begin, end))
		}
	case op.kind == ListIns && !got, op.kind == ListSch && got:
		if !c.everPresent(op.key, op.begin, end, true) {
			c.fail(fmt.Errorf("check: process %d op on key %d implies presence, but the key was never present during [%d,%d]", p, op.key, op.begin, end))
		}
	case op.kind == ListDel && !got, op.kind == ListSch && !got:
		if !c.everPresent(op.key, op.begin, end, false) {
			c.fail(fmt.Errorf("check: process %d op on key %d implies absence, but the key was always present during [%d,%d]", p, op.key, op.begin, end))
		}
	}
}

// claim consumes one structural event for key within [begin, end].
func (c *MultiListChecker) claim(events map[uint64][]uint64, key uint64, begin, end uint64) bool {
	steps := events[key]
	for i, s := range steps {
		if s >= begin && s <= end {
			events[key] = append(steps[:i], steps[i+1:]...)
			return true
		}
	}
	return false
}

// everPresent reports whether key's presence equalled want at any instant of
// [begin, end].
func (c *MultiListChecker) everPresent(key uint64, begin, end uint64, want bool) bool {
	spans := c.presence[key]
	// Value at begin: last span at or before begin (absent if none).
	i := sort.Search(len(spans), func(i int) bool { return spans[i].step > begin })
	cur := false
	if i > 0 {
		cur = spans[i-1].present
	}
	if cur == want {
		return true
	}
	for ; i < len(spans) && spans[i].step <= end; i++ {
		if spans[i].present == want {
			return true
		}
	}
	return false
}

// Finish verifies the final snapshot is consistent and all ops reported.
func (c *MultiListChecker) Finish() {
	for p := range c.ops {
		if c.ops[p].active {
			c.fail(fmt.Errorf("check: process %d has an unreported operation", p))
		}
	}
}

// Events returns the number of structural events observed.
func (c *MultiListChecker) Events() int { return c.events }

// Err returns accumulated violations.
func (c *MultiListChecker) Err() error {
	if len(c.errs) == 0 {
		return nil
	}
	return fmt.Errorf("check: %d violations; first: %v", len(c.errs), c.errs[0])
}

func (c *MultiListChecker) fail(err error) {
	if len(c.errs) < c.maxErrs {
		c.errs = append(c.errs, err)
	}
}
