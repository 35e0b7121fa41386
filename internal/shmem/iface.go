// The backend seam: the algorithms in internal/core, internal/baseline,
// internal/helping, internal/inchelp and internal/prim are written against
// two small interfaces instead of concrete simulator types, so one object
// source drives two execution backends:
//
//   - the discrete simulator (internal/sched): *sched.Env implements Ctx,
//     *Mem implements Memory, and every operation is a deterministic
//     preemption point in virtual time;
//   - native hardware (internal/native): words are a real []uint64 operated
//     on with sync/atomic, processes are real goroutines pinned to
//     priority-disciplined shards, and the race detector is the memory
//     oracle.
//
// The interfaces live here (not in internal/sched) because shmem is the
// leaf package both backends already depend on for Addr.
package shmem

import "repro/internal/trace"

// Priority is a process priority; larger values are more urgent. It lives
// here so both backends and the algorithms can share it (internal/sched
// aliases it as sched.Priority).
type Priority int

// Memory is the setup-time surface of a shared memory: allocation (Alloc
// for plain words, AllocRows for per-process rows, whose stride is the
// backend's) and unsynchronized peeks/pokes for constructors, seeding,
// snapshots and checkers. Both *Mem (simulated) and *native.Mem implement
// it.
//
// Peek and Poke are only legal when the memory is quiescent with respect to
// the caller (setup before processes start, or teardown after they join);
// the native backend performs them with atomic loads/stores so that
// snapshot reads taken after a goroutine join are race-clean.
type Memory interface {
	// Alloc reserves n consecutive words under a debug name.
	Alloc(name string, n int) (Addr, error)
	// MustAlloc is Alloc for setup code that sizes its memory up front.
	MustAlloc(name string, n int) Addr
	// AllocRows reserves rows equal rows of width words under one debug
	// name, for state indexed by process slot or processor (Par[p],
	// Rv[p], Ann[R], ...). Row i starts at base + i*stride, and stride >=
	// width is the backend's one layout rule for such rows: the
	// simulator packs them densely (stride == width, the addresses and
	// names of Alloc(name, rows*width)), while native memory gives every
	// row whole cache lines, so no two processes' rows share a line.
	// Callers keep the stride and index rows only through it (see Rows).
	AllocRows(name string, rows, width int) (base Addr, stride int, err error)
	// Peek reads a word without process context (checkers, snapshots).
	Peek(a Addr) uint64
	// Poke writes a word without process context (setup code).
	Poke(a Addr, v uint64)
	// Name returns a human-readable description of an address.
	Name(a Addr) string
	// Capacity returns the total number of words.
	Capacity() int
	// Allocated returns the number of words handed out so far, row
	// padding included.
	Allocated() int
}

// Rows is a block of equal rows from Memory.AllocRows: row i occupies
// Row(i) .. Row(i)+width-1.
type Rows struct {
	Base   Addr
	Stride int
}

// NewRows allocates rows through m.AllocRows.
func NewRows(m Memory, name string, rows, width int) (Rows, error) {
	base, stride, err := m.AllocRows(name, rows, width)
	return Rows{Base: base, Stride: stride}, err
}

// Row returns the address of row i's first word.
func (r Rows) Row(i int) Addr { return r.Base + Addr(i*r.Stride) }

// Ctx is the per-process execution context the algorithms run under: every
// shared-memory operation and every scheduling-relevant action goes through
// it. On the simulator each call charges virtual time and is a potential
// preemption point; on the native backend each call is a sync/atomic
// operation and a shard preemption point.
//
// Ctx is also the observability collection seam: because every algorithm
// step funnels through these methods, both backends can count operations,
// record trace events and attribute CAS failures here without any object
// opting in — the simulator via its event log and metrics (internal/sched),
// the native backend via its per-goroutine counter blocks and flight
// recorder (internal/native), aggregated into one report shape
// (internal/metrics) and one span model (internal/tracex).
type Ctx interface {
	// Load reads word a.
	Load(a Addr) uint64
	// Store writes word a.
	Store(a Addr, v uint64)
	// CAS atomically compares word a with old and, if equal, sets it to
	// val, reporting whether the swap happened.
	CAS(a Addr, old, val uint64) bool
	// CAS2 is the two-word compare-and-swap of the Greenwald–Cheriton
	// baseline. The simulator executes it as one atomic step; the native
	// backend emulates it in software (no modern hardware has CAS2, which
	// is the paper's own premise for Figure 8).
	CAS2(a1, a2 Addr, old1, old2, new1, new2 uint64) bool
	// CCASNative is the paper's CCAS as a single atomic machine step
	// (Figure 8(a)). Only the simulator can honour it; the native backend
	// panics, steering callers to the software constructions in
	// internal/prim.
	CCASNative(v Addr, ver uint64, x Addr, old, val uint64) bool
	// GuardedCAS is the one non-preemptible window of the software CCAS
	// constructions (Figure 8(b) lines 3–4, Figure 8(c) lines 2–3): with
	// preemption disabled on this processor it loads v and, only if that
	// equals ver, performs CAS(x, old, val). It costs exactly one Load plus
	// one CAS when the CAS is reached, and is a preemption point once the
	// window closes. Other processors still interleave between the two
	// operations. internal/prim's Tagged and Delayed are built on it.
	GuardedCAS(v Addr, ver uint64, x Addr, old, val uint64) bool
	// NoPreempt runs f with preemption disabled on this processor (the
	// paper's double-angle-bracket sections). Other processors still
	// interleave with f's memory operations. The Figure 8 constructions use
	// GuardedCAS instead; NoPreempt serves multi-operation critical
	// sections (the service layer's spinlock variants).
	NoPreempt(f func())
	// Yield is an explicit preemption point with no memory operation.
	Yield()
	// Delay charges d units of time (the paper's delay(Δ)). The native
	// backend treats it as a plain preemption point: real hardware gives
	// no virtual-time guarantee, which is the documented caveat on the
	// Delayed CCAS construction.
	Delay(d int64)
	// Slot returns the algorithm-level process identifier (the p of
	// Status[p], Par[p], Rv[p], ...).
	Slot() int
	// CPU returns the processor (simulator) or shard (native) the process
	// runs on — mypr in the paper.
	CPU() int
	// Prio returns this process's priority.
	Prio() Priority
	// Note records a structured algorithm annotation in the run trace.
	// The native backend drops notes (there is no deterministic trace to
	// attach them to).
	Note(key string, args ...trace.Field)
	// Traced reports whether notes are being recorded. Note's variadic
	// fields escape to the heap through this interface even when the
	// backend drops them, so hot paths wrap Note calls in a Traced check.
	Traced() bool
	// NoteHelp records one help invocation on the operation announced
	// under slot pid (observability bookkeeping only).
	NoteHelp(pid int)
	// SyncCostUnits returns the cost model's price of a synchronizing
	// operation, for algorithms that emulate RMW-heavy designs (the
	// Valois baseline's reference counting).
	SyncCostUnits() int64
}

var (
	_ Memory = (*Mem)(nil)
)
