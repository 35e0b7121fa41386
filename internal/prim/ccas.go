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
// the Impl value type, so every experiment can run with any of the three;
// tests cross-check that they are observationally equivalent. Impl is one
// concrete type, not an interface: Read and Logical are a load and a mask,
// which the compiler inlines into every validated read, and the operations
// that differ by construction switch on the kind.
//
// A word updated through a given Impl must be updated *only* through that
// Impl (the paper's standing assumption: "it is only updated by such
// operations"). The protocol-level plain writes the algorithms perform on
// such words (re-arming Rv[p], announcing) go through Write, which each
// construction makes representation-correct.
package prim

import (
	"fmt"

	"repro/internal/shmem"
)

// kind names one of the three Figure 8 constructions. The zero kind means
// the Impl is unset.
type kind uint8

const (
	kindUnset kind = iota
	kindNative
	kindTagged
	kindDelayed
)

// Impl is one implementation of CCAS plus the access discipline for the
// words it manages. Build it with Native, Tagged or Delayed; the zero
// value is unset (IsZero), and configs that hold an Impl use it to mean
// "choose the default". An unset Impl's Exec, Write and InitWord panic;
// its Read and Logical, which stay branch-free, return 0.
type Impl struct {
	kind kind
	// mask extracts a managed word's logical value from its raw word:
	// the low 64-tagBits bits under Tagged, every bit otherwise.
	mask uint64
	// delta is the delay AfterAdvance charges under Delayed (the paper's
	// delay(Δ)), set only by Delayed; the other constructions ignore it. The worst-case time
	// of Figure 8(c)'s lines 2-3 is two memory operations, so 2 is
	// faithful; 0 relies purely on the naturally interposed code, as the
	// paper's own experiments did.
	delta int64
}

// Native executes CCAS as one atomic simulator step (Figure 8(a)).
func Native() Impl { return Impl{kind: kindNative, mask: ^uint64(0)} }

// Tagged is the Figure 8(b) software CCAS: the managed word carries a
// modification counter in its top tagBits bits; the version check and the
// CAS run with local preemption disabled.
func Tagged() Impl { return Impl{kind: kindTagged, mask: logicalMask} }

// Delayed is the Figure 8(c) software CCAS: no control bits in the managed
// word. Correctness relies on the paper's timing property: after any
// increment of the version word, at least Δ (the worst-case time of lines
// 2-3) elapses before any CCAS modifies a managed word. In the helping
// schemes this holds naturally — "enough code is executed between any
// increment of *V and subsequent CCAS that modifies *X" — and the helping
// engine additionally honours delta after each advance (AfterAdvance).
func Delayed(delta int64) Impl { return Impl{kind: kindDelayed, mask: ^uint64(0), delta: delta} }

// IsZero reports whether c is the unset zero value.
func (c Impl) IsZero() bool { return c.kind == kindUnset }

// IsNative reports whether c is the simulator's atomic CCAS (Figure 8(a)).
func (c Impl) IsNative() bool { return c.kind == kindNative }

// Name identifies the implementation in benchmarks and tables.
func (c Impl) Name() string {
	switch c.kind {
	case kindNative:
		return "native"
	case kindTagged:
		return "tagged"
	case kindDelayed:
		return "delayed"
	}
	return "unset"
}

// Exec performs CCAS(v, ver, x, old, new): iff *v == ver and the logical
// value of *x equals old, set *x's logical value to new. old and new are
// logical values and must be <= MaxLogical.
func (c Impl) Exec(e shmem.Ctx, v shmem.Addr, ver uint64, x shmem.Addr, old, val uint64) bool {
	switch c.kind {
	case kindNative:
		return e.CCASNative(v, ver, x, old, val)
	case kindTagged:
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
	case kindDelayed:
		if e.Load(x) != old { // line 1
			return false
		}
		// Lines 2-3 inside double angle brackets: without local preemption.
		return e.GuardedCAS(v, ver, x, old, val)
	}
	panic(errUnset)
}

// Read returns the logical value of the managed word x.
func (c Impl) Read(e shmem.Ctx, x shmem.Addr) uint64 { return e.Load(x) & c.mask }

// Write performs a protocol-level plain write of a managed word. It is only
// legal at points where the algorithm guarantees no concurrent CCAS can
// succeed on x (e.g. re-arming Rv[p] before announcing).
//
// Under Tagged the read-modify-write is not atomic; the same protocol
// condition (no concurrent successful CCAS on x) is what makes it legal.
func (c Impl) Write(e shmem.Ctx, x shmem.Addr, val uint64) {
	switch c.kind {
	case kindNative, kindDelayed:
		e.Store(x, val)
	case kindTagged:
		checkLogical("Tagged", val)
		raw := e.Load(x)
		e.Store(x, (val&logicalMask)|(raw&^logicalMask+tagIncrement))
	default:
		panic(errUnset)
	}
}

// Logical decodes a raw word value into its logical value, for checkers and
// trace printers.
func (c Impl) Logical(raw uint64) uint64 { return raw & c.mask }

// InitWord initializes a managed word at setup time (no process context, no
// time charged).
func (c Impl) InitWord(m shmem.Memory, x shmem.Addr, val uint64) {
	switch c.kind {
	case kindNative, kindDelayed:
		m.Poke(x, val)
	case kindTagged:
		checkLogical("Tagged", val)
		m.Poke(x, val&logicalMask)
	default:
		panic(errUnset)
	}
}

// MaxLogical is the largest logical value the representation can hold.
func (c Impl) MaxLogical() uint64 { return c.mask }

// AfterAdvance is the hook run after every advance of the version word.
// Only Delayed uses it (the paper's delay(Δ)).
func (c Impl) AfterAdvance(e shmem.Ctx) {
	if c.kind == kindDelayed && c.delta > 0 {
		e.Delay(c.delta)
	}
}

const errUnset = "prim: CCAS implementation unset (use prim.Native, prim.Tagged or prim.Delayed)"

// The Figure 8(b) counter field is the top tagBits bits of a managed word
// (tagbits.go). The paper: "on an 8-processor machine, three or four bits
// would probably suffice" — on the simulator, where the window between
// the version check and the CAS is a bounded number of steps. On real
// hardware nothing bounds that window: a CAS goes stale once its word has
// been rewritten back to the same logical value a multiple of 2^tagBits
// times inside it, and the longest native window measured spans 5,412
// rewrites (PROOFNOTES.md). Sixteen bits give 12x headroom over that and
// leave 48 logical bits, enough for multilist's epoch word, which holds a
// 46-bit version count. The build-tagged mut_tag8 mutant restores the old
// 8-bit width (tagbits_mut.go).
const (
	tagShift        = 64 - tagBits
	logicalMask     = (uint64(1) << tagShift) - 1
	tagIncrement    = uint64(1) << tagShift
	tagBitsCapacity = uint64(1) << tagBits
)

// All returns one instance of each implementation, for table-driven tests
// and benchmarks.
func All() []Impl {
	return []Impl{Native(), Tagged(), Delayed(2)}
}

// ByName returns the implementation with the given Name.
func ByName(name string) (Impl, error) {
	for _, impl := range All() {
		if impl.Name() == name {
			return impl, nil
		}
	}
	return Impl{}, fmt.Errorf("prim: unknown CCAS implementation %q (want native, tagged or delayed)", name)
}

func checkLogical(impl string, vals ...uint64) {
	for _, v := range vals {
		if v > logicalMask {
			panic(fmt.Sprintf("prim: %s CCAS logical value %#x exceeds %d bits", impl, v, tagShift))
		}
	}
}
