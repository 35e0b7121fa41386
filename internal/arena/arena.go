// Package arena provides the fixed node pool that the linked-list
// implementations allocate from.
//
// The paper's delete-safety argument (Section 2.2) depends on the allocator:
// "a node cannot be reinserted until it has been deallocated by the process
// that deletes it and subsequently reallocated by the process wanting to
// insert it", and free-list nodes must have non-NIL next pointers
// ("assuming the free list is implemented with sentinels"). This arena
// provides exactly those properties:
//
//   - nodes live in the simulated shared memory (three words each: key,
//     val, next), addressed by a Ref index; Ref 0 is NIL and names a
//     reserved nil-node whose key is the maximum key, so a stray
//     dereference of NIL is harmless;
//   - each algorithm-level process slot owns a private free list threaded
//     through the nodes' next fields and terminated by a shared sentinel
//     node, so a free node's next is never NIL;
//   - Alloc and Free only touch the calling slot's list, so they are
//     naturally wait-free and match the paper's usage (the deleting process
//     frees the node it removed; an inserting process allocates from its own
//     pool).
//
// Because next fields may be managed by a software CCAS representation
// (internal/prim), the arena writes them through a configurable prim.Impl.
package arena

import (
	"fmt"

	"repro/internal/prim"
	"repro/internal/shmem"
)

// Ref is a node index. NIL (0) is the null reference.
type Ref uint32

// NIL is the null node reference.
const NIL Ref = 0

// wordsPerNode is the node footprint: key, val, next.
const wordsPerNode = 3

// Arena is a fixed pool of list nodes in simulated shared memory.
type Arena struct {
	mem      shmem.Memory
	nodes    shmem.Addr // base of node storage
	heads    shmem.Rows // per-slot free-list head words
	capacity int
	slots    int
	sentinel Ref // free-list terminator
	nextImpl prim.Impl

	staticNext Ref
	frozen     bool
}

// New creates an arena with the given total node capacity for the given
// number of process slots. Capacity includes the nil-node and the free-list
// sentinel, so usable capacity is capacity-2 minus any static nodes.
func New(m shmem.Memory, capacity, slots int) (*Arena, error) {
	if capacity < 3 {
		return nil, fmt.Errorf("arena: capacity %d too small (need >= 3)", capacity)
	}
	if slots < 1 {
		return nil, fmt.Errorf("arena: need at least one slot, got %d", slots)
	}
	nodes, err := m.Alloc("nodes", capacity*wordsPerNode)
	if err != nil {
		return nil, fmt.Errorf("arena: %w", err)
	}
	heads, err := shmem.NewRows(m, "freeheads", slots, 1)
	if err != nil {
		return nil, fmt.Errorf("arena: %w", err)
	}
	a := &Arena{
		mem:      m,
		nodes:    nodes,
		heads:    heads,
		capacity: capacity,
		slots:    slots,
		nextImpl: prim.Native{},
	}
	// Ref 0: the nil-node. Key is the maximum key so that a scan that
	// strays onto it stops; next points to itself.
	m.Poke(a.KeyAddr(NIL), ^uint64(0))
	m.Poke(a.NextAddr(NIL), 0)
	// Ref 1: the free-list sentinel. Non-NIL next (itself).
	a.sentinel = 1
	m.Poke(a.KeyAddr(a.sentinel), ^uint64(0))
	m.Poke(a.NextAddr(a.sentinel), uint64(a.sentinel))
	a.staticNext = 2
	return a, nil
}

// SetNextImpl selects the representation used for node next fields. It must
// be called before Freeze and must match the implementation the list
// algorithm uses for next-field CCAS operations.
func (a *Arena) SetNextImpl(impl prim.Impl) {
	if a.frozen {
		panic("arena: SetNextImpl after Freeze")
	}
	a.nextImpl = impl
}

// Static allocates a node at setup time (for list sentinels such as First
// and Last). It panics after Freeze.
func (a *Arena) Static() Ref {
	if a.frozen {
		panic("arena: Static after Freeze")
	}
	if int(a.staticNext) >= a.capacity {
		panic(fmt.Sprintf("arena: static allocation exceeds capacity %d", a.capacity))
	}
	r := a.staticNext
	a.staticNext++
	return r
}

// Freeze distributes all remaining nodes evenly across the slots' free
// lists. No further static allocation is possible.
func (a *Arena) Freeze() {
	if a.frozen {
		panic("arena: Freeze called twice")
	}
	a.frozen = true
	for s := 0; s < a.slots; s++ {
		a.mem.Poke(a.heads.Row(s), uint64(a.sentinel))
	}
	slot := 0
	for r := a.staticNext; int(r) < a.capacity; r++ {
		head := a.mem.Peek(a.heads.Row(slot))
		a.nextImpl.InitWord(a.mem, a.NextAddr(r), head)
		a.mem.Poke(a.heads.Row(slot), uint64(r))
		slot = (slot + 1) % a.slots
	}
}

// NodeRegion returns the address bounds [lo, hi) of this arena's node
// storage. Every container snapshot built on the arena is a pure function
// of the words in this region (key/val/next per node; CCAS Logical depends
// only on the raw word), so a write outside it can never change a
// snapshot. Per-write checkers use the bounds to skip snapshot diffs on
// engine bookkeeping writes.
func (a *Arena) NodeRegion() (lo, hi shmem.Addr) {
	return a.nodes, a.nodes + shmem.Addr(a.capacity*wordsPerNode)
}

// Capacity returns the total node capacity (including reserved nodes).
func (a *Arena) Capacity() int { return a.capacity }

// Sentinel returns the free-list terminator node.
func (a *Arena) Sentinel() Ref { return a.sentinel }

// KeyAddr returns the address of node r's key word.
func (a *Arena) KeyAddr(r Ref) shmem.Addr { return a.nodes + shmem.Addr(int(r)*wordsPerNode) }

// ValAddr returns the address of node r's value word.
func (a *Arena) ValAddr(r Ref) shmem.Addr { return a.nodes + shmem.Addr(int(r)*wordsPerNode+1) }

// NextAddr returns the address of node r's next word.
func (a *Arena) NextAddr(r Ref) shmem.Addr { return a.nodes + shmem.Addr(int(r)*wordsPerNode+2) }

// Contains reports whether r is a valid reference in this arena.
func (a *Arena) Contains(r Ref) bool { return int(r) < a.capacity }

// Alloc pops a node from the calling slot's free list (the paper's
// nodealloc, line 1 of Insert). It reports false when the slot's pool is
// exhausted.
func (a *Arena) Alloc(e shmem.Ctx, slot int) (Ref, bool) {
	a.checkSlot(slot)
	headAddr := a.heads.Row(slot)
	head := Ref(e.Load(headAddr))
	if head == a.sentinel {
		return NIL, false
	}
	next := Ref(a.nextImpl.Read(e, a.NextAddr(head)))
	e.Store(headAddr, uint64(next))
	return head, true
}

// Free pushes a node onto the calling slot's free list (the paper's
// nodefree, line 10 of Delete). The node's next field is overwritten with
// the chain link, which is always non-NIL — the property the uniprocessor
// insert protocol relies on.
func (a *Arena) Free(e shmem.Ctx, slot int, r Ref) {
	a.checkSlot(slot)
	if r == NIL || r == a.sentinel || !a.Contains(r) {
		panic(fmt.Sprintf("arena: Free of invalid ref %d", r))
	}
	headAddr := a.heads.Row(slot)
	head := e.Load(headAddr)
	a.nextImpl.Write(e, a.NextAddr(r), head)
	e.Store(headAddr, uint64(r))
}

// FreeCount walks slot's free list (setup/verification only; charges no
// simulated time) and returns its length.
func (a *Arena) FreeCount(slot int) int {
	a.checkSlot(slot)
	n := 0
	r := Ref(a.mem.Peek(a.heads.Row(slot)))
	for r != a.sentinel {
		n++
		if n > a.capacity {
			panic("arena: free list cycle detected")
		}
		r = Ref(a.nextImpl.Logical(a.mem.Peek(a.NextAddr(r))))
	}
	return n
}

func (a *Arena) checkSlot(slot int) {
	if slot < 0 || slot >= a.slots {
		panic(fmt.Sprintf("arena: slot %d out of range [0,%d)", slot, a.slots))
	}
}
