package service

import (
	"fmt"

	"repro/internal/core/multimwcas"
	"repro/internal/registry"
	"repro/internal/shmem"
)

// The token-bucket rate limiter: one shared word per tenant packing the
// current refill window and the tokens remaining in it,
//
//	word = window<<32 | tokens
//
// Windows are carried by requests (shmem.Ctx has no clock), so rollover
// is a pure state transition: a request from a newer window refills the
// bucket to Budget and takes the first token; a request from an older
// window is stale and denied without touching the word; otherwise a
// token is taken if any remain. Budget < 2^32 and window < 2^24 keep the
// packed word within every CCAS representation's logical range.
//
// The oracle: for any (tenant, window), admitted requests never exceed
// Budget, on any variant, under any schedule.

const tokenMask = (uint64(1) << 32) - 1

// limiterStep computes the bucket transition for a request from window w
// against current packed state cur. write=false means the word must not
// be modified (stale or exhausted).
func limiterStep(cur, w, budget uint64) (next uint64, write, admit bool) {
	curWin := cur >> 32
	switch {
	case w > curWin:
		return w<<32 | (budget - 1), true, true
	case w < curWin:
		return 0, false, false
	case cur&tokenMask > 0:
		return cur - 1, true, true
	}
	return 0, false, false
}

// tally is the per-slot admitted-request bookkeeping every limiter
// variant shares. Each slot owns its row (no synchronization needed);
// Totals sums rows at quiescence.
type tally struct {
	admitted [][]uint64
}

func newTally(slots, tenants int) tally {
	t := tally{admitted: make([][]uint64, slots)}
	for i := range t.admitted {
		t.admitted[i] = make([]uint64, tenants)
	}
	return t
}

func (t *tally) sum(tenants int) []uint64 {
	out := make([]uint64, tenants)
	for _, row := range t.admitted {
		for i, v := range row {
			out[i] += v
		}
	}
	return out
}

func newLimiter(b registry.Backend, cfg StoreConfig) (Store, error) {
	switch cfg.Variant {
	case WaitFree:
		return newWFLimiter(b, cfg)
	case Atomic:
		mem := b.Memory()
		base, err := mem.Alloc("svc.limiter", cfg.Tenants)
		if err != nil {
			return nil, err
		}
		s := &atomicLimiter{cfg: cfg, base: base, tally: newTally(cfg.Slots, cfg.Tenants)}
		seedBuckets(mem, base, cfg)
		return s, nil
	case Lock:
		mem := b.Memory()
		lock, err := mem.Alloc("svc.limiter.lock", 1)
		if err != nil {
			return nil, err
		}
		base, err := mem.Alloc("svc.limiter", cfg.Tenants)
		if err != nil {
			return nil, err
		}
		s := &lockLimiter{cfg: cfg, base: base, tally: newTally(cfg.Slots, cfg.Tenants),
			cs: make([]limiterSection, cfg.Slots)}
		for i := range s.cs {
			c := &s.cs[i]
			c.lock, c.budget, c.run = lock, uint64(cfg.Budget), c.critical
		}
		seedBuckets(mem, base, cfg)
		return s, nil
	case Sharded:
		mem := b.Memory()
		stripes, err := shmem.NewRows(mem, "svc.limiter.stripes", cfg.Slots, cfg.Tenants)
		if err != nil {
			return nil, err
		}
		s := &shardedLimiter{cfg: cfg, mem: mem, stripes: stripes,
			tally:   newTally(cfg.Slots, cfg.Tenants),
			flushed: make([][]uint64, cfg.Slots),
			win:     make([][]uint64, cfg.Slots),
			tokens:  make([][]uint64, cfg.Slots),
			pending: make([]int, cfg.Slots)}
		for i := range s.win {
			s.flushed[i] = make([]uint64, cfg.Tenants)
			s.win[i] = make([]uint64, cfg.Tenants)
			s.tokens[i] = make([]uint64, cfg.Tenants)
			for t := range s.tokens[i] {
				s.tokens[i][t] = s.slotBudget(i)
			}
		}
		return s, nil
	}
	return nil, fmt.Errorf("service: unknown variant %q (have %v)", cfg.Variant, Variants())
}

// seedBuckets initializes each tenant word to window 0 with a full
// budget, so window-0 requests contend for exactly Budget tokens instead
// of getting a free refill.
func seedBuckets(mem shmem.Memory, base shmem.Addr, cfg StoreConfig) {
	for t := 0; t < cfg.Tenants; t++ {
		mem.Poke(base+shmem.Addr(t), uint64(cfg.Budget))
	}
}

// wfLimiter keeps the tenant buckets inside the registry's
// multiprocessor MWCAS object. A request that exhausts the retry cap is
// denied with Applied=false — the overload answer a real admission
// controller gives when the decision path itself is contended.
type wfLimiter struct {
	cfg   StoreConfig
	inst  registry.Instance
	obj   *multimwcas.Object
	words []shmem.Addr
	sc    []wfScratch
	tally
}

func newWFLimiter(b registry.Backend, cfg StoreConfig) (Store, error) {
	initial := make([]uint64, cfg.Tenants)
	for i := range initial {
		initial[i] = uint64(cfg.Budget)
	}
	inst, err := registry.BuildOn(b, "multimwcas", registry.Config{
		Procs: cfg.Slots, Words: cfg.Tenants, Width: 1, Initial: initial,
	})
	if err != nil {
		return nil, err
	}
	return &wfLimiter{
		cfg:   cfg,
		inst:  inst,
		obj:   inst.Underlying().(*multimwcas.Object),
		words: inst.(registry.WordHolder).AppWords(),
		sc:    make([]wfScratch, cfg.Slots),
		tally: newTally(cfg.Slots, cfg.Tenants),
	}, nil
}

func (s *wfLimiter) Kind() Kind       { return Limiter }
func (s *wfLimiter) Variant() Variant { return WaitFree }
func (s *wfLimiter) Flush(Ctx, int)   {}
func (s *wfLimiter) Totals() []uint64 { return s.sum(s.cfg.Tenants) }

func (s *wfLimiter) Apply(e Ctx, slot int, r Req) Resp {
	sc := &s.sc[slot]
	sc.addr[0] = s.words[r.Tenant]
	limit := wfRetryCap(s.cfg.Slots)
	for try := 0; try <= limit; try++ {
		cur := s.obj.ReadWord(e, sc.addr[0])
		next, write, admit := limiterStep(cur, r.Window, uint64(s.cfg.Budget))
		if !write {
			return Resp{Applied: true, Retries: try}
		}
		sc.old[0] = cur
		sc.next[0] = next
		if s.obj.MWCAS(e, sc.addr[:], sc.old[:], sc.next[:]) {
			if admit {
				s.admitted[slot][r.Tenant]++
			}
			return Resp{Applied: true, Admitted: admit, Retries: try}
		}
	}
	return Resp{Retries: limit + 1}
}

// atomicLimiter runs the same transition as a bare CAS loop.
type atomicLimiter struct {
	cfg  StoreConfig
	base shmem.Addr
	tally
}

func (s *atomicLimiter) Kind() Kind       { return Limiter }
func (s *atomicLimiter) Variant() Variant { return Atomic }
func (s *atomicLimiter) Flush(Ctx, int)   {}
func (s *atomicLimiter) Totals() []uint64 { return s.sum(s.cfg.Tenants) }

func (s *atomicLimiter) Apply(e Ctx, slot int, r Req) Resp {
	a := s.base + shmem.Addr(r.Tenant)
	for try := 0; ; try++ {
		cur := e.Load(a)
		next, write, admit := limiterStep(cur, r.Window, uint64(s.cfg.Budget))
		if !write {
			return Resp{Applied: true, Retries: try}
		}
		if e.CAS(a, cur, next) {
			if admit {
				s.admitted[slot][r.Tenant]++
			}
			return Resp{Applied: true, Admitted: admit, Retries: try}
		}
	}
}

// lockLimiter takes the spinlock (inside NoPreempt, as lockCounter) and
// runs the transition with plain loads and stores.
type lockLimiter struct {
	cfg  StoreConfig
	base shmem.Addr
	cs   []limiterSection // per slot
	tally
}

// limiterSection is one slot's critical section, bound once at NewStore
// as counterSection is. Apply sets (e, a, window); run reports whether it
// took the lock (done) and the verdict (admit).
type limiterSection struct {
	e           Ctx
	lock        shmem.Addr
	a           shmem.Addr
	window      uint64
	budget      uint64
	done, admit bool
	run         func()
}

func (c *limiterSection) critical() {
	c.done, c.admit = c.e.CAS(c.lock, 0, 1), false
	if c.done {
		next, write, adm := limiterStep(c.e.Load(c.a), c.window, c.budget)
		if write {
			c.e.Store(c.a, next)
		}
		c.e.Store(c.lock, 0)
		c.admit = adm
	}
}

func (s *lockLimiter) Kind() Kind       { return Limiter }
func (s *lockLimiter) Variant() Variant { return Lock }
func (s *lockLimiter) Flush(Ctx, int)   {}
func (s *lockLimiter) Totals() []uint64 { return s.sum(s.cfg.Tenants) }

func (s *lockLimiter) Apply(e Ctx, slot int, r Req) Resp {
	c := &s.cs[slot]
	c.e, c.a, c.window = e, s.base+shmem.Addr(r.Tenant), r.Window
	for spins := 0; ; spins++ {
		e.NoPreempt(c.run)
		if c.done {
			if c.admit {
				s.admitted[slot][r.Tenant]++
			}
			return Resp{Applied: true, Admitted: c.admit, Retries: spins}
		}
		e.Yield()
	}
}

// shardedLimiter splits each tenant's budget across the slots: slot i
// owns budget/slots tokens per window (the first budget%slots slots one
// more), decided entirely from process-local state — zero shared-memory
// operations on the admission path. Admitted counts are published to
// per-slot stripe words every Batch requests (the usage-reporting write
// a sharded quota system still owes its backend). The trade: a slot
// whose local stripe is dry denies even when other stripes have tokens,
// so the variant under-admits — but the oracle direction (never more
// than Budget per window across all slots) holds by construction.
type shardedLimiter struct {
	cfg     StoreConfig
	mem     shmem.Memory
	stripes shmem.Rows // one row of Tenants words per slot
	tally              // admitted, cumulative per (slot, tenant)
	flushed [][]uint64 // portion of tally already published to stripes
	win     [][]uint64 // current local window per (slot, tenant)
	tokens  [][]uint64 // tokens left in that window's local stripe
	pending []int
}

func (s *shardedLimiter) Kind() Kind       { return Limiter }
func (s *shardedLimiter) Variant() Variant { return Sharded }

func (s *shardedLimiter) slotBudget(slot int) uint64 {
	b := uint64(s.cfg.Budget / s.cfg.Slots)
	if slot < s.cfg.Budget%s.cfg.Slots {
		b++
	}
	return b
}

func (s *shardedLimiter) stripe(slot, tenant int) shmem.Addr {
	return s.stripes.Row(slot) + shmem.Addr(tenant)
}

func (s *shardedLimiter) Apply(e Ctx, slot int, r Req) Resp {
	t := r.Tenant
	admit := false
	switch {
	case r.Window > s.win[slot][t]:
		s.win[slot][t] = r.Window
		s.tokens[slot][t] = s.slotBudget(slot)
		if s.tokens[slot][t] > 0 {
			s.tokens[slot][t]--
			admit = true
		}
	case r.Window == s.win[slot][t] && s.tokens[slot][t] > 0:
		s.tokens[slot][t]--
		admit = true
	}
	if admit {
		s.admitted[slot][t]++
	}
	s.pending[slot]++
	if s.pending[slot] >= s.cfg.Batch {
		s.Flush(e, slot)
	}
	return Resp{Applied: true, Admitted: admit}
}

func (s *shardedLimiter) Flush(e Ctx, slot int) {
	for t := 0; t < s.cfg.Tenants; t++ {
		if d := s.admitted[slot][t] - s.flushed[slot][t]; d != 0 {
			a := s.stripe(slot, t)
			e.Store(a, e.Load(a)+d)
			s.flushed[slot][t] = s.admitted[slot][t]
		}
	}
	s.pending[slot] = 0
}

// Totals reads the published stripe words (not the local tallies), so a
// missing Flush shows up as a conservation failure in the tests.
func (s *shardedLimiter) Totals() []uint64 {
	out := make([]uint64, s.cfg.Tenants)
	for slot := 0; slot < s.cfg.Slots; slot++ {
		for t := 0; t < s.cfg.Tenants; t++ {
			out[t] += s.mem.Peek(s.stripe(slot, t))
		}
	}
	return out
}
