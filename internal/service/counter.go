package service

import (
	"fmt"

	"repro/internal/core/multimwcas"
	"repro/internal/registry"
	"repro/internal/shmem"
)

// The volatile hot-key counter: one shared word per key, incremented by
// Req.Delta. Totals are the per-key sums — the conservation oracle is
// that they equal the sum of deltas over requests reported Applied.

func newCounter(b registry.Backend, cfg StoreConfig) (Store, error) {
	switch cfg.Variant {
	case WaitFree:
		return newWFCounter(b, cfg)
	case Atomic:
		mem := b.Memory()
		words, err := mem.Alloc("svc.counter", cfg.Keys)
		if err != nil {
			return nil, err
		}
		return &atomicCounter{cfg: cfg, mem: mem, base: words}, nil
	case Lock:
		mem := b.Memory()
		lock, err := mem.Alloc("svc.counter.lock", 1)
		if err != nil {
			return nil, err
		}
		words, err := mem.Alloc("svc.counter", cfg.Keys)
		if err != nil {
			return nil, err
		}
		s := &lockCounter{cfg: cfg, mem: mem, base: words, cs: make([]counterSection, cfg.Slots)}
		for i := range s.cs {
			c := &s.cs[i]
			c.lock, c.run = lock, c.critical
		}
		return s, nil
	case Sharded:
		mem := b.Memory()
		stripes, err := shmem.NewRows(mem, "svc.counter.stripes", cfg.Slots, cfg.Keys)
		if err != nil {
			return nil, err
		}
		s := &shardedCounter{cfg: cfg, mem: mem, stripes: stripes,
			local:   make([][]uint64, cfg.Slots),
			pending: make([]int, cfg.Slots)}
		for i := range s.local {
			s.local[i] = make([]uint64, cfg.Keys)
		}
		return s, nil
	}
	return nil, fmt.Errorf("service: unknown variant %q (have %v)", cfg.Variant, Variants())
}

// wfCounter keeps the key words inside a registry-built multiprocessor
// MWCAS object; each increment is a read-compute-MWCAS transaction
// through the paper's helping machinery.
type wfCounter struct {
	cfg   StoreConfig
	inst  registry.Instance
	obj   *multimwcas.Object
	words []shmem.Addr
	sc    []wfScratch
}

func newWFCounter(b registry.Backend, cfg StoreConfig) (Store, error) {
	inst, err := registry.BuildOn(b, "multimwcas", registry.Config{
		Procs: cfg.Slots, Words: cfg.Keys, Width: 1,
	})
	if err != nil {
		return nil, err
	}
	return &wfCounter{
		cfg:   cfg,
		inst:  inst,
		obj:   inst.Underlying().(*multimwcas.Object),
		words: inst.(registry.WordHolder).AppWords(),
		sc:    make([]wfScratch, cfg.Slots),
	}, nil
}

func (s *wfCounter) Kind() Kind       { return Counter }
func (s *wfCounter) Variant() Variant { return WaitFree }
func (s *wfCounter) Flush(Ctx, int)   {}
func (s *wfCounter) Totals() []uint64 { return s.inst.Snapshot() }

func (s *wfCounter) Apply(e Ctx, slot int, r Req) Resp {
	sc := &s.sc[slot]
	sc.addr[0] = s.words[r.Key]
	limit := wfRetryCap(s.cfg.Slots)
	for try := 0; try <= limit; try++ {
		cur := s.obj.ReadWord(e, sc.addr[0])
		sc.old[0] = cur
		sc.next[0] = cur + r.Delta
		if s.obj.MWCAS(e, sc.addr[:], sc.old[:], sc.next[:]) {
			return Resp{Applied: true, Retries: try}
		}
	}
	return Resp{Retries: limit + 1}
}

// atomicCounter is the lock-free baseline: a bare load/CAS loop per
// increment. Individual attempts can fail forever in theory; in practice
// a failed CAS means a rival committed, so the loop terminates whenever
// the system as a whole is doing finite work.
type atomicCounter struct {
	cfg  StoreConfig
	mem  shmem.Memory
	base shmem.Addr
}

func (s *atomicCounter) Kind() Kind       { return Counter }
func (s *atomicCounter) Variant() Variant { return Atomic }
func (s *atomicCounter) Flush(Ctx, int)   {}

func (s *atomicCounter) Apply(e Ctx, slot int, r Req) Resp {
	a := s.base + shmem.Addr(r.Key)
	for try := 0; ; try++ {
		cur := e.Load(a)
		if e.CAS(a, cur, cur+r.Delta) {
			return Resp{Applied: true, Retries: try}
		}
	}
}

func (s *atomicCounter) Totals() []uint64 {
	out := make([]uint64, s.cfg.Keys)
	for i := range out {
		out[i] = s.mem.Peek(s.base + shmem.Addr(i))
	}
	return out
}

// lockCounter guards the key words with one test-and-set spinlock. The
// acquire-update-release runs inside NoPreempt, the kernel-spinlock
// discipline: the holder cannot be preempted mid-critical-section, so a
// spinning rival waits only for cross-processor holders, never for a
// descheduled one (the unbounded priority inversion the paper's
// introduction warns about).
type lockCounter struct {
	cfg  StoreConfig
	mem  shmem.Memory
	base shmem.Addr
	cs   []counterSection // per slot
}

// counterSection is one slot's critical section, bound to its func value
// once at NewStore so a lock attempt hands NoPreempt an existing func and
// allocates nothing. Apply sets the inputs (e, a, delta); run reports
// through done whether it took the lock.
type counterSection struct {
	e     Ctx
	lock  shmem.Addr
	a     shmem.Addr
	delta uint64
	done  bool
	run   func()
}

func (c *counterSection) critical() {
	c.done = c.e.CAS(c.lock, 0, 1)
	if c.done {
		c.e.Store(c.a, c.e.Load(c.a)+c.delta)
		c.e.Store(c.lock, 0)
	}
}

func (s *lockCounter) Kind() Kind       { return Counter }
func (s *lockCounter) Variant() Variant { return Lock }
func (s *lockCounter) Flush(Ctx, int)   {}

func (s *lockCounter) Apply(e Ctx, slot int, r Req) Resp {
	c := &s.cs[slot]
	c.e, c.a, c.delta = e, s.base+shmem.Addr(r.Key), r.Delta
	for spins := 0; ; spins++ {
		e.NoPreempt(c.run)
		if c.done {
			return Resp{Applied: true, Retries: spins}
		}
		e.Yield()
	}
}

func (s *lockCounter) Totals() []uint64 {
	out := make([]uint64, s.cfg.Keys)
	for i := range out {
		out[i] = s.mem.Peek(s.base + shmem.Addr(i))
	}
	return out
}

// shardedCounter gives every slot its own stripe of the key space and
// batches increments in process-local memory, flushing each stripe with
// plain stores every Batch requests. There is no synchronization on the
// hot path at all — the single-writer discipline replaces it — at the
// price of staleness: a stripe's backing words lag its local cache by up
// to Batch-1 requests until Flush.
type shardedCounter struct {
	cfg     StoreConfig
	mem     shmem.Memory
	stripes shmem.Rows // one row of Keys words per slot
	local   [][]uint64
	pending []int
}

func (s *shardedCounter) Kind() Kind       { return Counter }
func (s *shardedCounter) Variant() Variant { return Sharded }

func (s *shardedCounter) stripe(slot, key int) shmem.Addr {
	return s.stripes.Row(slot) + shmem.Addr(key)
}

func (s *shardedCounter) Apply(e Ctx, slot int, r Req) Resp {
	s.local[slot][r.Key] += r.Delta
	s.pending[slot]++
	if s.pending[slot] >= s.cfg.Batch {
		s.Flush(e, slot)
	}
	return Resp{Applied: true}
}

func (s *shardedCounter) Flush(e Ctx, slot int) {
	loc := s.local[slot]
	for k, d := range loc {
		if d == 0 {
			continue
		}
		a := s.stripe(slot, k)
		e.Store(a, e.Load(a)+d)
		loc[k] = 0
	}
	s.pending[slot] = 0
}

func (s *shardedCounter) Totals() []uint64 {
	out := make([]uint64, s.cfg.Keys)
	for slot := 0; slot < s.cfg.Slots; slot++ {
		for k := 0; k < s.cfg.Keys; k++ {
			out[k] += s.mem.Peek(s.stripe(slot, k))
		}
	}
	return out
}
