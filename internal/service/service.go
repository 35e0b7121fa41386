// Package service composes the paper's wait-free objects into
// service-shaped infrastructure: a volatile hot-key counter and a
// token-bucket rate limiter — the admission/quota hot paths of a
// request-serving system. Each object is a set of shared words with one
// transition (add a delta to a key's word; take a token from a tenant's
// bucket), and four interchangeable stores behind one Store interface
// each run that transition under their own synchronization strategy
// (store.go):
//
//   - waitfree: the word set lives in a registry-built multiprocessor
//     MWCAS object (Figure 6), so every transition runs through the
//     paper's announce/helping machinery and each attempt completes in a
//     bounded number of steps;
//   - atomic: plain load/CAS retry loops on raw shared words — the
//     lock-free structure a pragmatic Go programmer writes with
//     sync/atomic;
//   - lock: a test-and-set spinlock guarding the words, taken inside a
//     NoPreempt section so the critical section cannot be preempted
//     (the kernel-spinlock discipline that makes lock-based code safe
//     under priority scheduling at all);
//   - sharded: per-slot stripes batched in process-local memory and
//     flushed every Batch requests — trading staleness for an order of
//     magnitude fewer backend calls, the classic serving-stack answer.
//
// Every store is written against shmem.Ctx, so one source runs on both
// execution backends: the deterministic simulator (exact step counts,
// response-time percentiles in virtual time) and native hardware (real
// goroutines, sync/atomic words, wall-clock latency histograms). The
// drivers in simdriver.go and nativedriver.go run the same generated
// traffic (traffic.go) on each.
package service

import (
	"fmt"

	"repro/internal/registry"
	"repro/internal/shmem"
)

// Kind names a service object.
type Kind string

// The two service objects.
const (
	// Counter is the volatile hot-key counter: per-key increment totals,
	// the shape of request/usage accounting.
	Counter Kind = "counter"
	// Limiter is the token-bucket rate limiter: per-tenant budgets
	// refilled every window, the shape of admission control.
	Limiter Kind = "limiter"
)

// Kinds lists both service objects.
func Kinds() []Kind { return []Kind{Counter, Limiter} }

// Variant names a Store implementation strategy.
type Variant string

// The four variants every service object ships in.
const (
	WaitFree Variant = "waitfree"
	Atomic   Variant = "atomic"
	Lock     Variant = "lock"
	Sharded  Variant = "sharded"
)

// Variants lists all four implementation strategies.
func Variants() []Variant { return []Variant{WaitFree, Atomic, Lock, Sharded} }

// Req is one generated request. The same request stream drives both
// service objects: counters read Key/Delta, limiters read Tenant/Window.
type Req struct {
	// Key is the counter key index in [0, Keys).
	Key int
	// Tenant is the limiter tenant index in [0, Tenants).
	Tenant int
	// Window is the limiter refill-window identifier. It is carried by
	// the request (derived from the request's position in its stream)
	// because shmem.Ctx exposes no clock — which also makes window
	// rollover identical on both backends. Must stay below 1<<16 so the
	// packed limiter word fits every CCAS representation.
	Window uint64
	// Delta is the counter increment amount.
	Delta uint64
}

// Resp is the outcome of one request.
type Resp struct {
	// Applied reports that the request changed shared state (an
	// increment landed; a limiter transition committed). The sharded
	// store sets it when the local stripe absorbed the request — the
	// backing words catch up at the next Flush.
	Applied bool
	// Admitted is the limiter verdict (always false for counters).
	Admitted bool
	// Retries counts synchronization retries the request cost (failed
	// CAS/MWCAS attempts, spinlock acquisition spins).
	Retries int
}

// Store is the seam every variant implements. All methods except Totals
// go through shmem.Ctx, so a Store built on a registry.Backend runs
// unmodified on the simulator or on native hardware.
type Store interface {
	// Kind reports which service object this store is.
	Kind() Kind
	// Variant reports the implementation strategy.
	Variant() Variant
	// Apply executes one request as process slot. Slots must be dense in
	// [0, StoreConfig.Slots) and at most one goroutine/process may use a
	// given slot at a time.
	Apply(e Ctx, slot int, r Req) Resp
	// Flush drains any process-local batched state (the sharded
	// store) into the backing words; a no-op elsewhere. Drivers call
	// it at the end of each slot's stream so the conservation oracles
	// see every accepted request.
	Flush(e Ctx, slot int)
	// Totals reads the quiescent aggregate: per-key increment totals for
	// counters, per-tenant admitted-request totals for limiters. Only
	// legal when no Apply/Flush is in flight (setup or post-join).
	Totals() []uint64
	// config is the normalized config the store was built with.
	config() StoreConfig
}

// Ctx is the execution context stores operate through: the simulator's
// *sched.Env or the native backend's *native.Proc.
type Ctx = shmem.Ctx

// StoreConfig sizes a Store.
type StoreConfig struct {
	Kind    Kind
	Variant Variant
	// Keys is the counter key-space size (default 64).
	Keys int
	// Tenants is the limiter tenant count (default 4).
	Tenants int
	// Slots is the number of process slots that will Apply (required).
	Slots int
	// Budget is the limiter's tokens per tenant per window (default 32).
	// The sharded limiter splits it across the slots' local buckets.
	Budget int
	// Batch is the sharded store's flush interval in requests
	// (default 8).
	Batch int
}

func (c *StoreConfig) normalize() error {
	if c.Keys == 0 {
		c.Keys = 64
	}
	if c.Tenants == 0 {
		c.Tenants = 4
	}
	if c.Budget == 0 {
		c.Budget = 32
	}
	if c.Batch == 0 {
		c.Batch = 8
	}
	if c.Slots < 1 {
		return fmt.Errorf("service: StoreConfig.Slots %d out of range (need >= 1)", c.Slots)
	}
	if c.Keys < 1 || c.Tenants < 1 || c.Budget < 1 || c.Batch < 1 {
		return fmt.Errorf("service: non-positive store sizing (keys %d, tenants %d, budget %d, batch %d)",
			c.Keys, c.Tenants, c.Budget, c.Batch)
	}
	if c.Budget >= 1<<32 {
		return fmt.Errorf("service: Budget %d does not fit the packed limiter word", c.Budget)
	}
	return nil
}

// NewStore builds the configured service object on any backend. The
// waitfree variant constructs its word set through the registry
// ("multimwcas"); the others allocate raw words from the backend's
// memory.
func NewStore(b registry.Backend, cfg StoreConfig) (Store, error) {
	if err := cfg.normalize(); err != nil {
		return nil, err
	}
	if cfg.Kind != Counter && cfg.Kind != Limiter {
		return nil, fmt.Errorf("service: unknown kind %q (have %v)", cfg.Kind, Kinds())
	}
	switch cfg.Variant {
	case WaitFree:
		return newWFStore(b, cfg)
	case Atomic:
		words, err := newRawWords(b.Memory(), cfg)
		if err != nil {
			return nil, err
		}
		return &atomicStore{words}, nil
	case Lock:
		return newLockStore(b.Memory(), cfg)
	case Sharded:
		return newShardedStore(b.Memory(), cfg)
	}
	return nil, fmt.Errorf("service: unknown variant %q (have %v)", cfg.Variant, Variants())
}

// wfScratch is a per-slot argument buffer for single-word MWCAS calls, so
// the hot path never allocates (the buffers alias nothing and each slot
// owns its entry). The waitfree store writes a slot's entry on every
// request, so an entry fills a 64-byte cache line: at its 24 data bytes,
// neighbouring slots would share a line.
type wfScratch struct {
	addr [1]shmem.Addr
	old  [1]uint64
	next [1]uint64
	_    [64 - 3*8]byte
}

// wfRetryCap bounds the waitfree store's transaction retry loop.
// Each MWCAS attempt is wait-free (the paper's bound); the
// read-compute-MWCAS transaction around it retries only when another
// process committed a conflicting transition in between, so retries are
// bounded by the other processes' own throughput (the Section 3.1 usage
// pattern, same as internal/workload's MWCAS suite). The cap turns the
// theoretical tail into a hard guarantee: a request that loses slots(cap)
// races in a row reports Applied=false and the driver counts it as lost.
func wfRetryCap(slots int) int { return 8 + 4*slots }
