// Package waitfree is a reproduction of "Implementing Wait-Free Objects on
// Priority-Based Systems" (Anderson, Ramamurthy, Jain — PODC 1997).
//
// It provides the paper's four wait-free object implementations — a
// multi-word compare-and-swap (MWCAS) and a sorted linked list, each for
// priority-based uniprocessors and multiprocessors — together with the
// substrate they require: a deterministic priority-scheduling simulator
// (the model the algorithms are only correct under; Go's own scheduler has
// no priorities), simulated sequentially-consistent shared memory with
// atomic CAS/CAS2/CCAS, the paper's three CCAS constructions (Figure 8), a
// node arena with the allocation discipline the list proofs rely on, the
// helping schemes (incremental, cyclic, priority), and the lock-free /
// lock-based / universal-construction baselines of the evaluation.
//
// # Quick start
//
//	sim := waitfree.NewSim(waitfree.SimConfig{Processors: 1, Seed: 1})
//	list, _ := waitfree.NewUniList(sim, waitfree.ListConfig{Procs: 2, Capacity: 64})
//	sim.SpawnAt(0, 0, 1, "worker", func(e *waitfree.Env) {
//		list.Insert(e, 42, 420)
//	})
//	if err := sim.Run(); err != nil { ... }
//
// Simulated processes are coroutines scheduled strictly by priority per
// processor; every shared-memory operation they perform through Env is a
// potential preemption point and costs one unit of virtual time. See
// DESIGN.md for the system inventory and EXPERIMENTS.md for the
// paper-versus-measured results.
package waitfree

import (
	"repro/internal/core/multilist"
	"repro/internal/core/multimwcas"
	"repro/internal/core/unilist"
	"repro/internal/core/unimwcas"
	"repro/internal/helping"
	"repro/internal/prim"
	"repro/internal/registry"
	"repro/internal/sched"
	"repro/internal/shmem"
	"repro/internal/workload"
)

// ErrProcConfig is the shared rejection for invalid Processors/Procs
// combinations. Every constructor in this package funnels through
// internal/registry's Normalize, so a bad combination produces this one
// error (test with errors.Is) no matter which object it was for.
var ErrProcConfig = registry.ErrProcConfig

// Core simulator types, re-exported.
type (
	// Sim is a deterministic priority-based scheduling simulation.
	Sim = sched.Sim
	// Env is the execution context of a simulated process; all shared
	// memory access goes through it.
	Env = sched.Env
	// SimConfig configures a simulation (processors, seed, granularity).
	SimConfig = sched.Config
	// JobSpec describes one simulated process.
	JobSpec = sched.JobSpec
	// Priority orders processes; larger is more urgent.
	Priority = sched.Priority
	// Addr addresses a word of simulated shared memory.
	Addr = shmem.Addr
	// CCAS is a conditional compare-and-swap implementation (Figure 8). The
	// zero value is unset: a config holding it gets the default.
	CCAS = prim.Impl
	// HelpingMode selects cyclic or priority helping.
	HelpingMode = helping.Mode
)

// Preemption-point granularities.
const (
	// Fine yields at every memory operation (use for correctness work).
	Fine = sched.Fine
	// Coarse yields at synchronizing operations and every few plain
	// accesses (use for large timing experiments).
	Coarse = sched.Coarse
)

// Helping modes for the multiprocessor objects.
const (
	// CyclicHelping advances the help counter around the processor ring.
	CyclicHelping = helping.Cyclic
	// PriorityHelping advances it to the highest-priority pending
	// operation.
	PriorityHelping = helping.Priority
)

// NewSim creates a simulation.
func NewSim(cfg SimConfig) *Sim { return sched.New(cfg) }

// CCASNative returns the hardware-CCAS model (one atomic step, Figure 8(a)).
func CCASNative() CCAS { return prim.Native() }

// CCASTagged returns the Figure 8(b) software CCAS (counter-tagged words).
func CCASTagged() CCAS { return prim.Tagged() }

// CCASDelayed returns the Figure 8(c) software CCAS (delay-based, no control
// bits in the target word).
func CCASDelayed() CCAS { return prim.Delayed(2) }

// ListConfig configures a wait-free list instance.
type ListConfig struct {
	// Procs is N, the number of process slots that may operate on the
	// list.
	Procs int
	// Capacity is the node arena size (seeded keys + live inserts).
	Capacity int
	// Seed pre-loads the list with these strictly ascending keys.
	Seed []uint64
	// Processors is P (multiprocessor list only; defaults to the
	// simulation's processor count).
	Processors int
	// CC selects the CCAS implementation (multiprocessor list only).
	CC CCAS
	// Mode selects the helping scheme (multiprocessor list only).
	Mode HelpingMode
	// Stride is the Findpos checkpoint stride (multiprocessor list
	// only; 0 means the paper's measured value, 100).
	Stride int
	// OneRound enables the single-traversal real-time optimization of
	// reference [1] (multiprocessor list only).
	OneRound bool
}

// UniList is the paper's wait-free linked list for priority-based
// uniprocessors (Figure 5), built on incremental helping.
type UniList = unilist.List

// NewUniList builds a uniprocessor wait-free list inside sim.
func NewUniList(sim *Sim, cfg ListConfig) (*UniList, error) {
	return build[*UniList](sim, "unilist", registry.Config{
		Procs: cfg.Procs, Capacity: cfg.Capacity, SeedKeys: cfg.Seed,
	})
}

// MultiList is the paper's wait-free linked list for priority-based
// multiprocessors (Figure 7), built on cyclic or priority helping and CCAS.
type MultiList = multilist.List

// NewMultiList builds a multiprocessor wait-free list inside sim.
func NewMultiList(sim *Sim, cfg ListConfig) (*MultiList, error) {
	return build[*MultiList](sim, "multilist", registry.Config{
		Processors: cfg.Processors, Procs: cfg.Procs, Capacity: cfg.Capacity,
		SeedKeys: cfg.Seed, CC: cfg.CC, Mode: cfg.Mode,
		Stride: cfg.Stride, OneRound: cfg.OneRound,
	})
}

// MWCASConfig configures a wait-free MWCAS instance.
type MWCASConfig struct {
	// Procs is N; Width is B, the per-operation word limit (0 means the
	// registry default, 4).
	Procs, Width int
	// Words is the number of application words to allocate and
	// initialize (valid for use with the object).
	Words int
	// Initial optionally sets the words' initial values.
	Initial []uint64
	// Processors, CC, Mode, OneRound configure the multiprocessor
	// object (ignored by the uniprocessor one).
	Processors int
	CC         CCAS
	Mode       HelpingMode
	OneRound   bool
}

// UniMWCAS is the paper's wait-free multi-word compare-and-swap for
// priority-based uniprocessors (Figure 3): Θ(W) per operation, CAS only.
type UniMWCAS struct {
	// Object is the underlying implementation.
	Object *unimwcas.Object
	// Words are the allocated application words.
	Words []Addr
}

// NewUniMWCAS builds a uniprocessor MWCAS and its application words.
func NewUniMWCAS(sim *Sim, cfg MWCASConfig) (*UniMWCAS, error) {
	inst, err := registry.Build(sim, "unimwcas", registry.Config{
		Procs: cfg.Procs, Width: cfg.Width, Words: cfg.Words, Initial: cfg.Initial,
	})
	if err != nil {
		return nil, err
	}
	return &UniMWCAS{
		Object: inst.Underlying().(*unimwcas.Object),
		Words:  inst.(registry.WordHolder).AppWords(),
	}, nil
}

// MWCAS performs the multi-word compare-and-swap. Values are 32-bit (the
// uniprocessor representation packs control fields beside the value).
func (o *UniMWCAS) MWCAS(e Ctx, addrs []Addr, old, new []uint32) bool {
	return o.Object.MWCAS(e, addrs, old, new)
}

// Read returns the current value of a word.
func (o *UniMWCAS) Read(e Ctx, a Addr) uint32 { return o.Object.Read(e, a) }

// MultiMWCAS is the paper's wait-free MWCAS for priority-based
// multiprocessors (Figure 6): Θ(2·P·W) per operation, CAS plus CCAS.
type MultiMWCAS struct {
	// Object is the underlying implementation.
	Object *multimwcas.Object
	// Words are the allocated application words.
	Words []Addr
}

// NewMultiMWCAS builds a multiprocessor MWCAS and its application words.
func NewMultiMWCAS(sim *Sim, cfg MWCASConfig) (*MultiMWCAS, error) {
	inst, err := registry.Build(sim, "multimwcas", registry.Config{
		Processors: cfg.Processors, Procs: cfg.Procs, Width: cfg.Width,
		Words: cfg.Words, Initial: cfg.Initial,
		CC: cfg.CC, Mode: cfg.Mode, OneRound: cfg.OneRound,
	})
	if err != nil {
		return nil, err
	}
	return &MultiMWCAS{
		Object: inst.Underlying().(*multimwcas.Object),
		Words:  inst.(registry.WordHolder).AppWords(),
	}, nil
}

// MWCAS performs the multi-word compare-and-swap on full-width words
// (under the tagged CCAS representation, values are limited to 48 bits).
func (o *MultiMWCAS) MWCAS(e Ctx, addrs []Addr, old, new []uint64) bool {
	return o.Object.MWCAS(e, addrs, old, new)
}

// Read returns the logical value of a word (plain read; see
// Object.ReadConsistent for the helping-scheme read).
func (o *MultiMWCAS) Read(e Ctx, a Addr) uint64 { return o.Object.ReadWord(e, a) }

// Experiment harness, re-exported for benchmarks and tools.
type (
	// ListExperiment parameterizes a Section 3.4 style run.
	ListExperiment = workload.ListConfig
	// ListExperimentResult is its measured outcome.
	ListExperimentResult = workload.ListResult
	// ListKind selects the implementation under test.
	ListKind = workload.Kind
)

// The list implementations the experiment harness can run.
const (
	// KindWaitFree is the multiprocessor wait-free list (Figure 7).
	KindWaitFree = workload.WaitFree
	// KindWaitFreeUni is the uniprocessor wait-free list (Figure 5).
	KindWaitFreeUni = workload.WaitFreeUni
	// KindLockFreeGC is the Greenwald–Cheriton CAS2 lock-free list [7].
	KindLockFreeGC = workload.LockFreeGC
	// KindCASOnly is the Valois-lineage CAS-only lock-free list [13].
	KindCASOnly = workload.CASOnly
	// KindLockBased is the spin-lock list (priority-inversion prone).
	KindLockBased = workload.LockBased
)

// RunListExperiment executes one experiment run.
func RunListExperiment(cfg ListExperiment) (*ListExperimentResult, error) {
	return workload.RunList(cfg)
}
