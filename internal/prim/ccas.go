// Package prim provides the paper's conditional compare-and-swap (CCAS)
// primitive in the three forms discussed in Section 3.3 / Figure 8:
//
//   - Native: CCAS as a single atomic machine step (Figure 8(a) semantics),
//     as it would exist on a machine with CAS2 (Motorola 68030/68040).
//   - Tagged: Figure 8(b) — built from CAS, with a small counter field
//     packed into the target word and lines 3-4 executed with preemption
//     disabled on the local processor.
//   - Delayed: Figure 8(c) — built from CAS with no control bits in the
//     target word, relying on the timing property that at least Δ time
//     passes between any increment of the version word and a subsequent
//     CCAS that modifies the target.
//
// Both software constructions run their non-preemptible window ("if *V ==
// ver then CAS(X)") as one shmem.Ctx.GuardedCAS call, so a CCAS builds no
// closure and allocates nothing on either backend.
//
// The multiprocessor MWCAS and linked-list algorithms are written against
// the Impl interface, so every experiment can run with any of the three;
// tests cross-check that they are observationally equivalent.
//
// A word updated through a given Impl must be updated *only* through that
// Impl (the paper's standing assumption: "it is only updated by such
// operations"). The protocol-level plain writes the algorithms perform on
// such words (re-arming Rv[p], announcing) go through Write, which each
// implementation makes representation-correct.
package prim

import (
	"fmt"

	"repro/internal/shmem"
)

// Impl is one implementation of CCAS plus the access discipline for the
// words it manages.
type Impl interface {
	// Name identifies the implementation in benchmarks and tables.
	Name() string
	// Exec performs CCAS(v, ver, x, old, new): iff *v == ver and the
	// logical value of *x equals old, set *x's logical value to new.
	// old and new are logical values and must be <= MaxLogical.
	Exec(e shmem.Ctx, v shmem.Addr, ver uint64, x shmem.Addr, old, new uint64) bool
	// Read returns the logical value of the managed word x.
	Read(e shmem.Ctx, x shmem.Addr) uint64
	// Write performs a protocol-level plain write of a managed word. It
	// is only legal at points where the algorithm guarantees no
	// concurrent CCAS can succeed on x (e.g. re-arming Rv[p] before
	// announcing).
	Write(e shmem.Ctx, x shmem.Addr, val uint64)
	// Logical decodes a raw word value into its logical value, for
	// checkers and trace printers.
	Logical(raw uint64) uint64
	// InitWord initializes a managed word at setup time (no process
	// context, no time charged).
	InitWord(m shmem.Memory, x shmem.Addr, val uint64)
	// MaxLogical is the largest logical value the representation can
	// hold.
	MaxLogical() uint64
}

// Native executes CCAS as one atomic simulator step (Figure 8(a)).
type Native struct{}

var _ Impl = Native{}

// Name implements Impl.
func (Native) Name() string { return "native" }

// Exec implements Impl.
func (Native) Exec(e shmem.Ctx, v shmem.Addr, ver uint64, x shmem.Addr, old, val uint64) bool {
	return e.CCASNative(v, ver, x, old, val)
}

// Read implements Impl.
func (Native) Read(e shmem.Ctx, x shmem.Addr) uint64 { return e.Load(x) }

// Write implements Impl.
func (Native) Write(e shmem.Ctx, x shmem.Addr, val uint64) { e.Store(x, val) }

// Logical implements Impl.
func (Native) Logical(raw uint64) uint64 { return raw }

// InitWord implements Impl.
func (Native) InitWord(m shmem.Memory, x shmem.Addr, val uint64) { m.Poke(x, val) }

// MaxLogical implements Impl.
func (Native) MaxLogical() uint64 { return ^uint64(0) }

// tagBits is the width of the Figure 8(b) counter field. The paper: "on an
// 8-processor machine, three or four bits would probably suffice"; we are
// generous because the word has room.
const tagBits = 8

const (
	tagShift        = 64 - tagBits
	logicalMask     = (uint64(1) << tagShift) - 1
	tagIncrement    = uint64(1) << tagShift
	maxTaggedvalue  = logicalMask
	tagBitsCapacity = uint64(1) << tagBits
)

// Tagged is the Figure 8(b) software CCAS: the managed word carries a small
// modification counter in its top bits; the version check and the CAS run
// with local preemption disabled.
type Tagged struct{}

var _ Impl = Tagged{}

// Name implements Impl.
func (Tagged) Name() string { return "tagged" }

// Exec implements Impl.
func (Tagged) Exec(e shmem.Ctx, v shmem.Addr, ver uint64, x shmem.Addr, old, val uint64) bool {
	checkLogical("Tagged", old, val)
	raw := e.Load(x) // line 1
	if raw&logicalMask != old {
		return false // line 2
	}
	// Lines 3-4: "executed without preemption" — locally only. Other
	// processors interleave freely; the counter field is what defends
	// against their interference (including ABA on the logical value).
	next := (val & logicalMask) | (raw&^logicalMask + tagIncrement)
	return e.GuardedCAS(v, ver, x, raw, next)
}

// Read implements Impl.
func (Tagged) Read(e shmem.Ctx, x shmem.Addr) uint64 { return e.Load(x) & logicalMask }

// Write implements Impl.
//
// The read-modify-write is not atomic; it is only legal under the protocol
// condition documented on Impl.Write (no concurrent successful CCAS on x).
func (Tagged) Write(e shmem.Ctx, x shmem.Addr, val uint64) {
	checkLogical("Tagged", val)
	raw := e.Load(x)
	e.Store(x, (val&logicalMask)|(raw&^logicalMask+tagIncrement))
}

// Logical implements Impl.
func (Tagged) Logical(raw uint64) uint64 { return raw & logicalMask }

// InitWord implements Impl.
func (Tagged) InitWord(m shmem.Memory, x shmem.Addr, val uint64) {
	checkLogical("Tagged", val)
	m.Poke(x, val&logicalMask)
}

// MaxLogical implements Impl.
func (Tagged) MaxLogical() uint64 { return maxTaggedvalue }

// Delayed is the Figure 8(c) software CCAS: no control bits in the managed
// word. Correctness relies on the paper's timing property: after any
// increment of the version word, at least Δ (the worst-case time of lines
// 2-3) elapses before any CCAS modifies a managed word. In the helping
// schemes this holds naturally — "enough code is executed between any
// increment of *V and subsequent CCAS that modifies *X" — and the helping
// engine additionally honours Delta after each advance when configured.
type Delayed struct {
	// Delta is the delay charged by AfterAdvance. The worst-case time of
	// lines 2-3 is two memory operations, so 2 is faithful; 0 relies
	// purely on the naturally interposed code, as the paper's own
	// experiments did.
	Delta int64
}

var _ Impl = Delayed{}

// Name implements Impl.
func (d Delayed) Name() string { return "delayed" }

// Exec implements Impl.
func (d Delayed) Exec(e shmem.Ctx, v shmem.Addr, ver uint64, x shmem.Addr, old, val uint64) bool {
	if e.Load(x) != old { // line 1
		return false
	}
	// Lines 2-3 inside double angle brackets: without local preemption.
	return e.GuardedCAS(v, ver, x, old, val)
}

// Read implements Impl.
func (d Delayed) Read(e shmem.Ctx, x shmem.Addr) uint64 { return e.Load(x) }

// Write implements Impl.
func (d Delayed) Write(e shmem.Ctx, x shmem.Addr, val uint64) { e.Store(x, val) }

// Logical implements Impl.
func (d Delayed) Logical(raw uint64) uint64 { return raw }

// InitWord implements Impl.
func (d Delayed) InitWord(m shmem.Memory, x shmem.Addr, val uint64) { m.Poke(x, val) }

// MaxLogical implements Impl.
func (d Delayed) MaxLogical() uint64 { return ^uint64(0) }

// AfterAdvance gives an implementation a hook after every advance of the
// version word. Only Delayed uses it (the paper's delay(Δ)).
func AfterAdvance(impl Impl, e shmem.Ctx) {
	if d, ok := impl.(Delayed); ok && d.Delta > 0 {
		e.Delay(d.Delta)
	}
}

// All returns one instance of each implementation, for table-driven tests
// and benchmarks.
func All() []Impl {
	return []Impl{Native{}, Tagged{}, Delayed{Delta: 2}}
}

// ByName returns the implementation with the given Name.
func ByName(name string) (Impl, error) {
	for _, impl := range All() {
		if impl.Name() == name {
			return impl, nil
		}
	}
	return nil, fmt.Errorf("prim: unknown CCAS implementation %q (want native, tagged or delayed)", name)
}

func checkLogical(impl string, vals ...uint64) {
	for _, v := range vals {
		if v > maxTaggedvalue {
			panic(fmt.Sprintf("prim: %s CCAS logical value %#x exceeds %d bits", impl, v, tagShift))
		}
	}
}
