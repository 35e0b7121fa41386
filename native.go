package waitfree

// Native-hardware facade. Everything else in this package runs the
// paper's objects inside the deterministic simulator; this file runs them
// on the machine you have: real goroutines, real words updated through
// sync/atomic, and the paper's priority discipline enforced by shards
// (internal/native). One object source serves both — every constructor
// here is the BuildOn twin of a simulator constructor above, differing
// only in the backend it is handed.
//
//	w := waitfree.NewNativeWorld(1<<16, 4)           // 4 priority shards
//	q, _ := waitfree.NewUniQueueOn(waitfree.NativeBackend(w),
//		waitfree.QueueConfig{Procs: 8, Capacity: 256})
//	p := w.NewProc(0 /* slot */, 0 /* shard */, 3 /* priority */)
//	p.Begin()
//	q.Enqueue(p, 42)
//	p.End()
//
// The caveats that come with leaving the simulator are documented in
// DESIGN.md ("Native backend"): no CCAS hardware exists (the multiprocessor
// objects default to the Figure 8(b) tagged construction), CAS2 is a
// guard-word emulation, and the white-box checkers (Config.Check) are
// simulator-only — use the black-box engine (internal/linz) instead.

import (
	"repro/internal/core/multimwcas"
	"repro/internal/core/unimwcas"
	"repro/internal/native"
	"repro/internal/registry"
	"repro/internal/shmem"
)

type (
	// Ctx is the execution context objects operate through: the
	// simulator's *Env or the native backend's *NativeProc.
	Ctx = shmem.Ctx
	// NativeWorld is a set of priority-disciplined shards over real
	// memory.
	NativeWorld = native.World
	// NativeProc is one native process: a goroutine's handle onto its
	// shard and the shared memory. It implements Ctx.
	NativeProc = native.Proc
	// NativeMem is real shared memory: a []uint64 updated through
	// sync/atomic.
	NativeMem = native.Mem
	// Backend abstracts where an object's memory and scheduling live
	// (simulator or native); the *On constructors build on any Backend.
	Backend = registry.Backend
)

// NewNativeMem allocates native shared memory of the given word count.
// Every per-process row an object keeps (Par[p], Rv[p], Ann[R], a free-list
// head) fills whole 64-byte cache lines on native memory, and that padding
// counts against the word count: allow about 8 words per row, so a few
// dozen words per process beyond the object's nodes and data words.
func NewNativeMem(words int) *NativeMem { return native.NewMem(words) }

// NewNativeWorld creates a native world of `shards` priority-disciplined
// shards over a fresh memory of memWords words. Within a shard, the
// highest-priority ready process runs and strictly-higher-priority
// arrivals preempt at memory operations — the paper's scheduling model,
// enforced at runtime rather than simulated. Size memWords as for
// NewNativeMem.
func NewNativeWorld(memWords, shards int) *NativeWorld {
	return native.NewWorld(native.NewMem(memWords), shards)
}

// NewNativeFreeWorld creates a native world with no scheduling discipline:
// processes are plain goroutines. This is the environment the lock-free
// and lock-based baselines are designed for.
func NewNativeFreeWorld(memWords int) *NativeWorld {
	return native.NewFreeWorld(native.NewMem(memWords))
}

// SimBackend adapts a simulation for the *On constructors.
func SimBackend(sim *Sim) Backend { return registry.SimBackend(sim) }

// NativeBackend adapts a native world for the *On constructors.
func NativeBackend(w *NativeWorld) Backend { return registry.NativeBackend(w) }

// buildOn is build for an explicit backend.
func buildOn[T any](b Backend, name string, cfg registry.Config) (T, error) {
	inst, err := registry.BuildOn(b, name, cfg)
	if err != nil {
		var zero T
		return zero, err
	}
	return inst.Underlying().(T), nil
}

// NewUniListOn builds a uniprocessor wait-free list on any backend.
func NewUniListOn(b Backend, cfg ListConfig) (*UniList, error) {
	return buildOn[*UniList](b, "unilist", registry.Config{
		Procs: cfg.Procs, Capacity: cfg.Capacity, SeedKeys: cfg.Seed,
	})
}

// NewMultiListOn builds a multiprocessor wait-free list on any backend.
func NewMultiListOn(b Backend, cfg ListConfig) (*MultiList, error) {
	return buildOn[*MultiList](b, "multilist", registry.Config{
		Processors: cfg.Processors, Procs: cfg.Procs, Capacity: cfg.Capacity,
		SeedKeys: cfg.Seed, CC: cfg.CC, Mode: cfg.Mode,
		Stride: cfg.Stride, OneRound: cfg.OneRound,
	})
}

// NewUniQueueOn builds a uniprocessor wait-free FIFO queue on any backend.
func NewUniQueueOn(b Backend, cfg QueueConfig) (*UniQueue, error) {
	return buildOn[*UniQueue](b, "uniqueue", cfg.registry())
}

// NewUniStackOn builds a uniprocessor wait-free LIFO stack on any backend.
func NewUniStackOn(b Backend, cfg QueueConfig) (*UniStack, error) {
	return buildOn[*UniStack](b, "unistack", cfg.registry())
}

// NewMultiQueueOn builds a multiprocessor wait-free FIFO queue on any
// backend.
func NewMultiQueueOn(b Backend, cfg QueueConfig) (*MultiQueue, error) {
	return buildOn[*MultiQueue](b, "multiqueue", cfg.registry())
}

// NewMultiStackOn builds a multiprocessor wait-free LIFO stack on any
// backend.
func NewMultiStackOn(b Backend, cfg QueueConfig) (*MultiStack, error) {
	return buildOn[*MultiStack](b, "multistack", cfg.registry())
}

// NewUniHashOn builds a uniprocessor wait-free hash table on any backend.
func NewUniHashOn(b Backend, cfg HashConfig) (*UniHash, error) {
	return buildOn[*UniHash](b, "unihash", cfg.registry())
}

// NewMultiHashOn builds a multiprocessor wait-free hash table on any
// backend.
func NewMultiHashOn(b Backend, cfg HashConfig) (*MultiHash, error) {
	return buildOn[*MultiHash](b, "multihash", cfg.registry())
}

// NewUniMWCASOn builds a uniprocessor MWCAS and its application words on
// any backend.
func NewUniMWCASOn(b Backend, cfg MWCASConfig) (*UniMWCAS, error) {
	inst, err := registry.BuildOn(b, "unimwcas", registry.Config{
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

// NewMultiMWCASOn builds a multiprocessor MWCAS and its application words
// on any backend.
func NewMultiMWCASOn(b Backend, cfg MWCASConfig) (*MultiMWCAS, error) {
	inst, err := registry.BuildOn(b, "multimwcas", registry.Config{
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
