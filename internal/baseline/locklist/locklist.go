// Package locklist implements a sorted linked list protected by a
// test-and-set spin lock.
//
// It exists to demonstrate the failure mode that motivates the paper's
// wait-free constructions (Section 1): on a priority-scheduled uniprocessor,
// a lock holder preempted inside its critical section can never run again
// while a higher-priority process spins on the lock — unbounded priority
// inversion, which in a kernel becomes deadlock. The package's tests show
// the simulator's watchdog catching exactly this, while the same code runs
// fine when the lock holder cannot be preempted mid-section.
package locklist

import (
	"fmt"
	"sync/atomic"

	"repro/internal/arena"
	"repro/internal/shmem"
)

// KeyMin and KeyMax bound the user key space (sentinel keys).
const (
	KeyMin = uint64(0)
	KeyMax = ^uint64(0)
)

// List is a lock-protected sorted list.
type List struct {
	mem         shmem.Memory
	ar          *arena.Arena
	lock        shmem.Addr
	first, last arena.Ref

	// Spins counts lock-acquisition spin iterations (contention metric).
	// It is atomic because native-backend goroutines spin concurrently.
	Spins atomic.Int64
}

// New creates a list for processes that allocate from ar.
func New(m shmem.Memory, ar *arena.Arena) (*List, error) {
	lock, err := m.Alloc("ListLock", 1)
	if err != nil {
		return nil, fmt.Errorf("locklist: %w", err)
	}
	l := &List{mem: m, ar: ar, lock: lock}
	l.first = ar.Static()
	l.last = ar.Static()
	m.Poke(ar.KeyAddr(l.first), KeyMin)
	m.Poke(ar.NextAddr(l.first), uint64(l.last))
	m.Poke(ar.KeyAddr(l.last), KeyMax)
	m.Poke(ar.NextAddr(l.last), uint64(arena.NIL))
	return l, nil
}

// Lock acquires the list lock explicitly. Exposed so demonstrations can
// hold the lock across a preemption point; normal operations manage the
// lock themselves.
func (l *List) Lock(e shmem.Ctx) { l.acquire(e) }

// Unlock releases the list lock acquired with Lock.
func (l *List) Unlock(e shmem.Ctx) { l.release(e) }

// acquire spins on the test-and-set lock.
func (l *List) acquire(e shmem.Ctx) {
	for !e.CAS(l.lock, 0, 1) {
		l.Spins.Add(1)
		e.Yield() // a preemption point; the spin burns processor time
	}
}

// release frees the lock.
func (l *List) release(e shmem.Ctx) {
	e.Store(l.lock, 0)
}

// scan finds the predecessor of the first node with key >= key. Caller must
// hold the lock.
func (l *List) scan(e shmem.Ctx, key uint64) (prev, next arena.Ref, nextKey uint64) {
	prev = l.first
	for {
		next = arena.Ref(e.Load(l.ar.NextAddr(prev)))
		nextKey = e.Load(l.ar.KeyAddr(next))
		if nextKey >= key {
			return prev, next, nextKey
		}
		prev = next
	}
}

// Insert adds key, reporting false if present.
func (l *List) Insert(e shmem.Ctx, key, val uint64) bool {
	l.checkKey(key)
	p := e.Slot()
	node, ok := l.ar.Alloc(e, p)
	if !ok {
		panic(fmt.Sprintf("locklist: process %d exhausted its node pool", p))
	}
	e.Store(l.ar.KeyAddr(node), key)
	e.Store(l.ar.ValAddr(node), val)
	l.acquire(e)
	prev, next, nextKey := l.scan(e, key)
	if nextKey == key {
		l.release(e)
		l.ar.Free(e, p, node)
		return false
	}
	e.Store(l.ar.NextAddr(node), uint64(next))
	e.Store(l.ar.NextAddr(prev), uint64(node))
	l.release(e)
	return true
}

// Delete removes key, reporting whether it was present.
func (l *List) Delete(e shmem.Ctx, key uint64) bool {
	l.checkKey(key)
	l.acquire(e)
	prev, next, nextKey := l.scan(e, key)
	if nextKey != key {
		l.release(e)
		return false
	}
	succ := e.Load(l.ar.NextAddr(next))
	e.Store(l.ar.NextAddr(prev), succ)
	l.release(e)
	l.ar.Free(e, e.Slot(), next)
	return true
}

// Search reports whether key is present.
func (l *List) Search(e shmem.Ctx, key uint64) bool {
	l.checkKey(key)
	l.acquire(e)
	_, _, nextKey := l.scan(e, key)
	l.release(e)
	return nextKey == key
}

// SeedAscending bulk-loads the list at setup time.
func (l *List) SeedAscending(keys []uint64) error {
	prev := l.first
	for i, k := range keys {
		if k == KeyMin || k == KeyMax {
			return fmt.Errorf("locklist: seed key %#x is reserved", k)
		}
		if i > 0 && keys[i-1] >= k {
			return fmt.Errorf("locklist: seed keys not strictly ascending at %d", i)
		}
		node := l.ar.Static()
		l.mem.Poke(l.ar.KeyAddr(node), k)
		l.mem.Poke(l.ar.ValAddr(node), k)
		l.mem.Poke(l.ar.NextAddr(node), uint64(l.last))
		l.mem.Poke(l.ar.NextAddr(prev), uint64(node))
		prev = node
	}
	return nil
}

// Snapshot returns the keys currently in the list (quiescent use).
func (l *List) Snapshot() []uint64 {
	var keys []uint64
	r := arena.Ref(l.mem.Peek(l.ar.NextAddr(l.first)))
	for r != l.last && r != arena.NIL {
		keys = append(keys, l.mem.Peek(l.ar.KeyAddr(r)))
		if len(keys) > l.ar.Capacity() {
			panic("locklist: list cycle detected")
		}
		r = arena.Ref(l.mem.Peek(l.ar.NextAddr(r)))
	}
	return keys
}

func (l *List) checkKey(key uint64) {
	if key == KeyMin || key == KeyMax {
		panic(fmt.Sprintf("locklist: key %#x is reserved for sentinels", key))
	}
}
