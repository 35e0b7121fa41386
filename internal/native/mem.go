// Package native is the real-hardware execution backend: the counterpart of
// the discrete simulator (internal/sched) behind the shmem.Ctx / shmem.Memory
// seam. Words are a real []uint64 operated on with sync/atomic, processes are
// real goroutines, and the race detector — not a virtual-time scheduler — is
// the memory-model oracle.
//
// What the backend preserves from the paper's machine model, and how:
//
//   - Priority scheduling. The uniprocessor algorithms (Figures 3 and 5) are
//     only correct under strict priority scheduling: a preempted process
//     resumes only after every higher-priority process has finished. A shard
//     (world.go) enforces exactly that discipline over a set of goroutines,
//     turning each one into a "processor" in the paper's sense.
//   - CCAS. Hardware has no CCAS (the premise of Figure 8), so the backend
//     refuses prim.Native and runs the software constructions from
//     internal/prim; their no-preemption window is Proc.GuardedCAS, which
//     masks the shard's preemption check for one Load and one CAS.
//   - CAS2. Hardware has no double-word CAS either; Mem emulates it behind a
//     guard word (see CAS2 below). The emulation is honest about what it is:
//     a tiny lock, not a lock-free primitive — which is itself the paper's
//     argument for why the Greenwald–Cheriton baseline is not portable.
package native

import (
	"fmt"
	"runtime"
	"sync/atomic"
	"unsafe"

	"repro/internal/shmem"
)

// Mem is a shared memory of real 64-bit words. It implements shmem.Memory
// for setup and teardown; running processes operate on it through Proc
// (shmem.Ctx). All word access — including Peek/Poke — is performed with
// sync/atomic, so snapshots taken after a goroutine join are race-clean.
//
// Layout: the backing array is cache-line aligned, and Alloc starts every
// allocation on a fresh line while a fixed padding reserve (linePadReserve
// words, on top of the requested capacity) lasts; after that, allocations
// are packed densely. So the first allocations an object makes — its
// control words and heads — never share a line with one another, and a
// word that one processor polls is not invalidated by writes to a
// neighbouring allocation. AllocRows goes further for per-process rows:
// its base always starts a line, and its stride rounds the row width up
// to whole lines, so each process's Par, Rv or Ann row owns its lines.
// Allocated counts every word handed out, row padding included (and line
// alignment once the reserve is spent), against Capacity; addresses index
// the backing array, which is why an address may exceed Capacity.
type Mem struct {
	// words is the line-aligned backing array: capacity data words plus
	// the padding reserve. It never moves or grows (Alloc bumps inside
	// it), so Procs keep the slice itself.
	words []uint64
	// next is the first free backing index; used counts allocated words
	// against capacity; padLeft is what remains of the reserve.
	next, used, capacity, padLeft int
	// regions records allocations oldest-first (in address order) for
	// Name, mirroring the simulated memory's debug naming.
	regions []region
	// guard serializes CAS2 emulation (see CAS2).
	guard atomic.Uint32
}

// region is one allocation: n words from base, in rows of stride words
// whose first width words are data when it came from AllocRows (stride 0
// for Alloc).
type region struct {
	name                   string
	base, n, stride, width int
}

// linePadReserve is the padding, in words, that Alloc may spend aligning
// allocations to cache lines: up to 7 words each for the first ~64
// allocations, enough for every fixed-size structure an object sets up.
const linePadReserve = 64 * (lineWords - 1)

// lineWords is the number of 64-bit words per cache line.
const lineWords = cacheLine / 8

// NewMem returns a native memory of the given capacity in words.
func NewMem(words int) *Mem {
	if words <= 0 {
		panic(fmt.Sprintf("native: memory capacity %d must be positive", words))
	}
	n := words + linePadReserve
	buf := make([]uint64, n+lineWords-1)
	off := 0
	if mis := uintptr(unsafe.Pointer(&buf[0])) % cacheLine; mis != 0 {
		off = int(cacheLine-mis) / 8
	}
	return &Mem{words: buf[off : off+n : off+n], capacity: words, padLeft: linePadReserve}
}

// Alloc reserves n consecutive words under a debug name, starting on a
// cache line while the padding reserve lasts (see Mem). It is setup-time
// API: callers allocate before spawning processes.
func (m *Mem) Alloc(name string, n int) (shmem.Addr, error) {
	if n <= 0 {
		return 0, fmt.Errorf("native: allocation %q of %d words", name, n)
	}
	if m.used+n > m.capacity {
		return 0, fmt.Errorf("native: %w: %q needs %d words, %d of %d free",
			shmem.ErrOutOfMemory, name, n, m.capacity-m.used, m.capacity)
	}
	if pad := -m.next & (lineWords - 1); pad <= m.padLeft {
		m.next += pad
		m.padLeft -= pad
	} else {
		m.padLeft = 0 // reserve spent: pack densely from here on
	}
	base := m.next
	m.next += n
	m.used += n
	m.regions = append(m.regions, region{name: name, base: base, n: n})
	return shmem.Addr(base), nil
}

// AllocRows reserves rows rows of width words, each starting a cache line:
// the stride is width rounded up to whole lines, and the base is aligned
// even after the padding reserve is spent (that alignment then counts in
// Allocated, as the row padding always does). It is setup-time API, like
// Alloc.
func (m *Mem) AllocRows(name string, rows, width int) (shmem.Addr, int, error) {
	if rows <= 0 || width <= 0 {
		return 0, 0, fmt.Errorf("native: row allocation %q of %d rows of %d words", name, rows, width)
	}
	stride := (width + lineWords - 1) &^ (lineWords - 1)
	n := rows * stride
	pad := -m.next & (lineWords - 1)
	charged := n
	if pad > m.padLeft {
		charged += pad
	}
	if m.used+charged > m.capacity {
		return 0, 0, fmt.Errorf("native: %w: %q needs %d words (%d rows of stride %d), %d of %d free",
			shmem.ErrOutOfMemory, name, charged, rows, stride, m.capacity-m.used, m.capacity)
	}
	if pad <= m.padLeft {
		m.padLeft -= pad
	}
	base := m.next + pad
	m.next = base + n
	m.used += charged
	m.regions = append(m.regions, region{name: name, base: base, n: n, stride: stride, width: width})
	return shmem.Addr(base), stride, nil
}

// MustAlloc is Alloc for setup code that sizes its memory up front.
func (m *Mem) MustAlloc(name string, n int) shmem.Addr {
	a, err := m.Alloc(name, n)
	if err != nil {
		panic(err)
	}
	return a
}

// Peek reads a word without process context (checkers, snapshots). The load
// is atomic, so post-join snapshot reads are race-clean.
func (m *Mem) Peek(a shmem.Addr) uint64 { return atomic.LoadUint64(&m.words[a]) }

// Poke writes a word without process context (setup code).
func (m *Mem) Poke(a shmem.Addr, v uint64) { atomic.StoreUint64(&m.words[a], v) }

// Name returns a human-readable description of an address. A word of an
// AllocRows region is named by row and offset, not by its padded index:
// Rv[1] for one-word rows, Par[1][2] for wider ones, and "Par[1] pad" for
// the padding after a row's data.
func (m *Mem) Name(a shmem.Addr) string {
	i := int(a)
	for _, r := range m.regions {
		if i < r.base || i >= r.base+r.n {
			continue
		}
		if r.stride == 0 {
			if r.n == 1 {
				return r.name
			}
			return fmt.Sprintf("%s[%d]", r.name, i-r.base)
		}
		switch row, off := (i-r.base)/r.stride, (i-r.base)%r.stride; {
		case off >= r.width:
			return fmt.Sprintf("%s[%d] pad", r.name, row)
		case r.width == 1:
			return fmt.Sprintf("%s[%d]", r.name, row)
		default:
			return fmt.Sprintf("%s[%d][%d]", r.name, row, off)
		}
	}
	return fmt.Sprintf("word%d", i)
}

// Capacity returns the number of words the memory was sized for (the
// alignment reserve excluded).
func (m *Mem) Capacity() int { return m.capacity }

// Allocated returns the number of words handed out so far, row padding
// included.
func (m *Mem) Allocated() int { return m.used }

func (m *Mem) load(a shmem.Addr) uint64     { return atomic.LoadUint64(&m.words[a]) }
func (m *Mem) store(a shmem.Addr, v uint64) { atomic.StoreUint64(&m.words[a], v) }

// cas2 emulates double-word compare-and-swap behind a spin-acquired guard
// word. Concurrent CAS2s serialize on the guard; on success the data word
// (a2) is stored before the control word (a1), because the one consumer
// (the Greenwald–Cheriton baseline) passes (version, pointer) and validates
// its reads against the version word — a reader that observes the new
// pointer under the old version sees a state the committing operation has
// already reached within its own invoke–response window, which linearizes.
//
// The guard makes CAS2 blocking, not lock-free: a goroutine descheduled
// between acquire and release stalls other CAS2s. That is the honest cost
// of emulating a primitive real hardware does not have — the paper's own
// premise (Section 3.4) for preferring CAS-plus-CCAS constructions. The
// returned retry count is the number of guard-acquisition spins — the
// direct measure of that cost, surfaced by the observability layer as
// the cas2_guard_retries counter.
func (m *Mem) cas2(a1, a2 shmem.Addr, old1, old2, new1, new2 uint64) (ok bool, retries int) {
	for !m.guard.CompareAndSwap(0, 1) {
		retries++
		runtime.Gosched()
	}
	if m.load(a1) != old1 || m.load(a2) != old2 {
		m.guard.Store(0)
		return false, retries
	}
	m.store(a2, new2)
	m.store(a1, new1)
	m.guard.Store(0)
	return true, retries
}

var _ shmem.Memory = (*Mem)(nil)
