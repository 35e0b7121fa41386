package service

import (
	"repro/internal/core/multimwcas"
	"repro/internal/registry"
	"repro/internal/shmem"
)

// A store is one synchronization strategy over one word set. The kind
// decides only the five StoreConfig functions below — how many words,
// which word a request acts on, the words' starting value, the one
// transition and what Totals reports — so the waitfree, atomic and lock
// stores run the same transition under their own synchronization.
//
// The hot-key counter keeps one word per key, incremented by Req.Delta;
// its conservation oracle is that the word totals equal the sum of the
// deltas of requests reported Applied.
//
// The token-bucket rate limiter keeps one word per tenant packing the
// current refill window and the tokens remaining in it,
//
//	word = window<<32 | tokens
//
// Windows are carried by requests (shmem.Ctx has no clock), so rollover
// is a pure state transition: a request from a newer window refills the
// bucket to Budget and takes the first token; a request from an older
// window is stale and denied without touching the word; otherwise a
// token is taken if any remain. Budget < 2^32 and window < 2^16 keep the
// packed word within every CCAS representation's logical range. Each
// word starts at window 0 with a full budget, so window-0 requests
// contend for exactly Budget tokens instead of getting a free refill.
// Its oracle: for any (tenant, window), admitted requests never exceed
// Budget, on any variant, under any schedule.

// words is the size of the word set: one word per key or per tenant.
func (c *StoreConfig) words() int {
	if c.Kind == Counter {
		return c.Keys
	}
	return c.Tenants
}

// word is the index of the word r acts on.
func (c *StoreConfig) word(r Req) int {
	if c.Kind == Counter {
		return r.Key
	}
	return r.Tenant
}

// initial is every word's starting value.
func (c *StoreConfig) initial() uint64 {
	if c.Kind == Counter {
		return 0
	}
	return uint64(c.Budget)
}

// step is the transition r makes from a word's current value cur.
// write=false means the word must not be modified (a stale or exhausted
// bucket); admit is the limiter verdict.
func (c *StoreConfig) step(cur uint64, r Req) (next uint64, write, admit bool) {
	if c.Kind == Counter {
		return cur + r.Delta, true, false
	}
	return limiterStep(cur, r.Window, uint64(c.Budget))
}

// totals is the quiescent aggregate the waitfree, atomic and lock stores
// report: the word values for a counter, the admitted tally for a
// limiter.
func (c *StoreConfig) totals(words func() []uint64, t tally) []uint64 {
	if c.Kind == Counter {
		return words()
	}
	return t.sum(c.Tenants)
}

const tokenMask = (uint64(1) << 32) - 1

// limiterStep computes the bucket transition for a request from window w
// against current packed state cur.
func limiterStep(cur, w, budget uint64) (next uint64, write, admit bool) {
	curWin := cur >> 32
	if mutSvcStaleRefill && w != curWin {
		return w<<32 | (budget - 1), true, true
	}
	switch {
	case w > curWin:
		return w<<32 | (budget - 1), true, true
	case w == curWin && cur&tokenMask > 0:
		return cur - 1, true, true
	}
	return 0, false, false
}

// tally counts admitted requests per (slot, tenant). Each slot owns its
// row (no synchronization needed); Totals sums rows at quiescence.
type tally struct {
	admitted [][]uint64
}

func newTally(cfg StoreConfig) tally {
	return tally{admitted: grid(cfg.Slots, cfg.Tenants)}
}

func (t tally) count(slot, tenant int, admit bool) {
	if admit {
		t.admitted[slot][tenant]++
	}
}

func (t tally) sum(tenants int) []uint64 {
	out := make([]uint64, tenants)
	for _, row := range t.admitted {
		for i, v := range row {
			out[i] += v
		}
	}
	return out
}

// grid makes rows × cols zeroed process-local words.
func grid(rows, cols int) [][]uint64 {
	g := make([][]uint64, rows)
	for i := range g {
		g[i] = make([]uint64, cols)
	}
	return g
}

func newWFStore(b registry.Backend, cfg StoreConfig) (Store, error) {
	initial := make([]uint64, cfg.words())
	for i := range initial {
		initial[i] = cfg.initial()
	}
	inst, err := registry.BuildOn(b, "multimwcas", registry.Config{
		Procs: cfg.Slots, Words: cfg.words(), Width: 1, Initial: initial,
	})
	if err != nil {
		return nil, err
	}
	return &wfStore{
		cfg:   cfg,
		inst:  inst,
		obj:   inst.Underlying().(*multimwcas.Object),
		words: inst.(registry.WordHolder).AppWords(),
		sc:    make([]wfScratch, cfg.Slots),
		tally: newTally(cfg),
	}, nil
}

// wfStore keeps the word set inside a registry-built multiprocessor
// MWCAS object; each request is a read-compute-MWCAS transaction through
// the paper's helping machinery. A request that exhausts the retry cap
// reports Applied=false — the overload answer a real admission
// controller gives when the decision path itself is contended.
type wfStore struct {
	cfg   StoreConfig
	inst  registry.Instance
	obj   *multimwcas.Object
	words []shmem.Addr
	sc    []wfScratch
	tally
}

func (s *wfStore) Kind() Kind          { return s.cfg.Kind }
func (s *wfStore) Variant() Variant    { return WaitFree }
func (s *wfStore) config() StoreConfig { return s.cfg }
func (s *wfStore) Flush(Ctx, int)      {}
func (s *wfStore) Totals() []uint64    { return s.cfg.totals(s.inst.Snapshot, s.tally) }

func (s *wfStore) Apply(e Ctx, slot int, r Req) Resp {
	sc := &s.sc[slot]
	w := s.cfg.word(r)
	sc.addr[0] = s.words[w]
	limit := wfRetryCap(s.cfg.Slots)
	for try := 0; try <= limit; try++ {
		cur := s.obj.ReadWord(e, sc.addr[0])
		next, write, admit := s.cfg.step(cur, r)
		if !write {
			return Resp{Applied: true, Retries: try}
		}
		sc.old[0] = cur
		sc.next[0] = next
		if s.obj.MWCAS(e, sc.addr[:], sc.old[:], sc.next[:]) {
			s.count(slot, w, admit)
			return Resp{Applied: true, Admitted: admit, Retries: try}
		}
	}
	return Resp{Retries: limit + 1}
}

// rawWords is the word set of the atomic and lock stores: plain shared
// words from base, each set to its starting value at build time.
type rawWords struct {
	cfg  StoreConfig
	mem  shmem.Memory
	base shmem.Addr
	tally
}

func newRawWords(mem shmem.Memory, cfg StoreConfig) (rawWords, error) {
	base, err := mem.Alloc("svc."+string(cfg.Kind), cfg.words())
	if err != nil {
		return rawWords{}, err
	}
	for i := 0; i < cfg.words(); i++ {
		mem.Poke(base+shmem.Addr(i), cfg.initial())
	}
	return rawWords{cfg: cfg, mem: mem, base: base, tally: newTally(cfg)}, nil
}

func (s *rawWords) Kind() Kind          { return s.cfg.Kind }
func (s *rawWords) config() StoreConfig { return s.cfg }
func (s *rawWords) Flush(Ctx, int)      {}
func (s *rawWords) Totals() []uint64    { return s.cfg.totals(s.peek, s.tally) }

func (s *rawWords) peek() []uint64 {
	out := make([]uint64, s.cfg.words())
	for i := range out {
		out[i] = s.mem.Peek(s.base + shmem.Addr(i))
	}
	return out
}

// atomicStore is the lock-free baseline: a bare load/CAS loop per
// request. Individual attempts can fail forever in theory; in practice
// a failed CAS means a rival committed, so the loop terminates whenever
// the system as a whole is doing finite work.
type atomicStore struct{ rawWords }

func (s *atomicStore) Variant() Variant { return Atomic }

func (s *atomicStore) Apply(e Ctx, slot int, r Req) Resp {
	w := s.cfg.word(r)
	a := s.base + shmem.Addr(w)
	for try := 0; ; try++ {
		cur := e.Load(a)
		next, write, admit := s.cfg.step(cur, r)
		if !write {
			return Resp{Applied: true, Retries: try}
		}
		if e.CAS(a, cur, next) {
			s.count(slot, w, admit)
			return Resp{Applied: true, Admitted: admit, Retries: try}
		}
	}
}

// lockStore guards the words with one test-and-set spinlock and runs the
// transition with plain loads and stores. The acquire-update-release
// runs inside NoPreempt, the kernel-spinlock discipline: the holder
// cannot be preempted mid-critical-section, so a spinning rival waits
// only for cross-processor holders, never for a descheduled one (the
// unbounded priority inversion the paper's introduction warns about).
type lockStore struct {
	rawWords
	cs []section // per slot
}

// section is one slot's critical section, bound to its func value once
// at NewStore so a lock attempt hands NoPreempt an existing func and
// allocates nothing. Apply sets the inputs (e, a, r); run reports
// whether it took the lock (done) and the verdict (admit).
type section struct {
	cfg         *StoreConfig
	e           Ctx
	lock, a     shmem.Addr
	r           Req
	done, admit bool
	run         func()
}

func (c *section) critical() {
	c.done, c.admit = c.e.CAS(c.lock, 0, 1), false
	if c.done {
		next, write, admit := c.cfg.step(c.e.Load(c.a), c.r)
		if write {
			c.e.Store(c.a, next)
		}
		c.e.Store(c.lock, 0)
		c.admit = admit
	}
}

func newLockStore(mem shmem.Memory, cfg StoreConfig) (Store, error) {
	lock, err := mem.Alloc("svc."+string(cfg.Kind)+".lock", 1)
	if err != nil {
		return nil, err
	}
	words, err := newRawWords(mem, cfg)
	if err != nil {
		return nil, err
	}
	s := &lockStore{rawWords: words, cs: make([]section, cfg.Slots)}
	for i := range s.cs {
		c := &s.cs[i]
		c.cfg, c.lock, c.run = &s.cfg, lock, c.critical
	}
	return s, nil
}

func (s *lockStore) Variant() Variant { return Lock }

func (s *lockStore) Apply(e Ctx, slot int, r Req) Resp {
	c := &s.cs[slot]
	w := s.cfg.word(r)
	c.e, c.a, c.r = e, s.base+shmem.Addr(w), r
	for spins := 0; ; spins++ {
		e.NoPreempt(c.run)
		if c.done {
			s.count(slot, w, c.admit)
			return Resp{Applied: true, Admitted: c.admit, Retries: spins}
		}
		e.Yield()
	}
}

// shardedStore gives every slot its own stripe of the word set and keeps
// what the slot has not yet published in process-local memory: a
// counter's increments, a limiter's admissions. It publishes them to the
// stripe with plain stores every Batch requests, so the hot path has no
// synchronization at all — the single-writer discipline replaces it — at
// the price of staleness: a stripe lags its slot by up to Batch-1
// requests until Flush. Totals reads the published stripes, so a
// missing Flush shows up as a conservation failure in the tests.
//
// The limiter decides admission from process-local state too: slot i
// owns its share of each tenant's budget per window, Budget/Slots tokens
// (the first Budget%Slots slots one more), in a local bucket word run by
// the same transition as the shared one. A slot whose bucket is dry
// denies even when other slots have tokens, so the variant under-admits,
// but it never admits more than Budget per window across all slots.
type shardedStore struct {
	cfg     StoreConfig
	mem     shmem.Memory
	stripes shmem.Rows // one row of words per slot
	unpub   [][]uint64 // per (slot, word): the amount not yet published
	bucket  [][]uint64 // per (slot, tenant): the limiter's local bucket
	pending []int
}

func newShardedStore(mem shmem.Memory, cfg StoreConfig) (Store, error) {
	stripes, err := shmem.NewRows(mem, "svc."+string(cfg.Kind)+".stripes", cfg.Slots, cfg.words())
	if err != nil {
		return nil, err
	}
	s := &shardedStore{cfg: cfg, mem: mem, stripes: stripes,
		unpub:   grid(cfg.Slots, cfg.words()),
		bucket:  grid(cfg.Slots, cfg.Tenants),
		pending: make([]int, cfg.Slots)}
	for slot, row := range s.bucket {
		for t := range row {
			row[t] = s.share(slot) // window 0, the slot's full share
		}
	}
	return s, nil
}

func (s *shardedStore) Kind() Kind          { return s.cfg.Kind }
func (s *shardedStore) Variant() Variant    { return Sharded }
func (s *shardedStore) config() StoreConfig { return s.cfg }

// share is slot's part of each tenant's budget per window.
func (s *shardedStore) share(slot int) uint64 {
	b := uint64(s.cfg.Budget / s.cfg.Slots)
	if slot < s.cfg.Budget%s.cfg.Slots {
		b++
	}
	return b
}

func (s *shardedStore) Apply(e Ctx, slot int, r Req) Resp {
	w := s.cfg.word(r)
	resp := Resp{Applied: true}
	if s.cfg.Kind == Counter {
		s.unpub[slot][w] += r.Delta
	} else if share := s.share(slot); share > 0 {
		next, write, admit := limiterStep(s.bucket[slot][w], r.Window, share)
		if write {
			s.bucket[slot][w] = next
		}
		if admit {
			s.unpub[slot][w]++
		}
		resp.Admitted = admit
	}
	s.pending[slot]++
	if s.pending[slot] >= s.cfg.Batch {
		s.Flush(e, slot)
	}
	return resp
}

func (s *shardedStore) Flush(e Ctx, slot int) {
	row := s.unpub[slot]
	for w, d := range row {
		if d != 0 {
			a := s.stripes.Row(slot) + shmem.Addr(w)
			e.Store(a, e.Load(a)+d)
			row[w] = 0
		}
	}
	s.pending[slot] = 0
}

func (s *shardedStore) Totals() []uint64 {
	out := make([]uint64, s.cfg.words())
	for slot := 0; slot < s.cfg.Slots; slot++ {
		for w := range out {
			out[w] += s.mem.Peek(s.stripes.Row(slot) + shmem.Addr(w))
		}
	}
	return out
}
