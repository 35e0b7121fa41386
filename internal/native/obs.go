package native

// Observability for the native backend: per-goroutine atomic counter
// blocks, lock-free latency histograms, and a flight recorder of
// per-goroutine trace-event ring buffers, drained post-run into the same
// trace.Log / metrics shapes the simulator produces.
//
// Design constraints, in order:
//
//  1. Zero overhead when disabled. A world without EnableObs must run the
//     exact hot path it ran before this layer existed, plus at most a nil
//     check (internal/native's obs regression test gates this with an
//     allocation count and a ns/op ratio).
//  2. No locks on the hot path when enabled. Counters are per-goroutine
//     padded atomic blocks (one writer, any number of snapshot readers);
//     the latency histogram has fixed power-of-two buckets, so observing
//     a sample is one atomic increment; the flight recorder is a
//     per-goroutine overwrite-oldest ring with a single writer. The only
//     shared mutable word is the recorder's global sequence counter (one
//     atomic add per recorded event), which buys an exact causal order
//     at drain time.
//  3. Deterministic drain. DrainTrace orders events by the global
//     sequence — the true happens-before order for shard-serialized
//     events — and clamps wall-clock timestamps to be monotone per CPU,
//     so the resulting log satisfies trace.Log's per-processor
//     monotonicity invariant and tracex.Build reconstructs spans exactly
//     as it does for simulator logs.

import (
	"sort"
	"sync/atomic"
	"time"

	"repro/internal/metrics"
	"repro/internal/trace"
)

// ObsConfig selects which observability layers a world collects.
type ObsConfig struct {
	// Metrics enables the per-goroutine counter blocks and latency
	// histograms (ProcStats).
	Metrics bool
	// Recorder enables the flight recorder: per-goroutine ring buffers of
	// trace events drained by DrainTrace.
	Recorder bool
	// RingCap is the per-goroutine ring capacity in events (default
	// DefaultRingCap). When a goroutine records more, the oldest events
	// are overwritten and counted as dropped.
	RingCap int
}

// DefaultRingCap is the per-goroutine flight-recorder capacity when
// ObsConfig.RingCap is zero.
const DefaultRingCap = 4096

// obsState is the world-level observability context shared by its procs.
type obsState struct {
	cfg   ObsConfig
	epoch time.Time
	// seq is the recorder's global event sequence. It is the only shared
	// word the hot path touches (one atomic add per recorded event).
	seq atomic.Uint64
	// lastWriter[a] holds slot+1 of the last process that wrote word a
	// (0 = setup code or unknown), maintained only while the recorder is
	// on; it attributes CAS failures to the winning writer, which is what
	// turns a failed CAS into a causality edge in the span model.
	lastWriter []atomic.Int32
	// procs registers every Proc created under this world, for drain and
	// aggregation.
	procs []*Proc
}

// EnableObs switches observability on for this world. Call it before
// NewProc — procs created earlier collect nothing. The CAS-failure
// attribution table, when the recorder is enabled, spans the memory's
// whole backing array (padding included), since addresses index it.
func (w *World) EnableObs(cfg ObsConfig) {
	if cfg.RingCap <= 0 {
		cfg.RingCap = DefaultRingCap
	}
	o := &obsState{cfg: cfg, epoch: time.Now()}
	if cfg.Recorder {
		o.lastWriter = make([]atomic.Int32, len(w.mem.words))
	}
	w.obs = o
}

// ProcStats is one process's padded, atomically-updated counter block.
// The process goroutine is the only writer; progress pollers and the
// post-run aggregator read with atomic loads, so snapshots are race-clean
// at any moment. The pads keep two processes' blocks off one cache line.
type ProcStats struct {
	_ [64]byte // leading pad

	// Ops counts completed abstract operations (End calls);
	// Dispatches counts times the process became its shard's runner;
	// Preemptions counts times a higher-priority arrival displaced it.
	Ops         atomic.Uint64
	Dispatches  atomic.Uint64
	Preemptions atomic.Uint64
	// MaxPreemptDepth is the deepest shard preempted-stack this process
	// was ever buried at (its own position, 1-based).
	MaxPreemptDepth atomic.Uint64
	// CAS2GuardRetries counts spin iterations waiting for the CAS2
	// emulation's guard word.
	CAS2GuardRetries atomic.Uint64

	// hist is the per-op wall-clock latency histogram (ns, Begin→End —
	// response time including shard wait, the figure the "practically
	// wait-free" question is about).
	hist atomicHist

	_ [64]byte // trailing pad
}

// atomicHist is the lock-free collection form of metrics.Hist: fixed
// power-of-two buckets updated with atomic increments.
type atomicHist struct {
	count   atomic.Uint64
	buckets [metrics.HistBuckets]atomic.Uint64
}

func (h *atomicHist) observe(v int64) {
	h.buckets[metrics.HistBucket(v)].Add(1)
	h.count.Add(1)
}

// snapshot drains the atomic histogram into the plain report form.
func (h *atomicHist) snapshot() *metrics.Hist {
	out := &metrics.Hist{Count: h.count.Load()}
	for i := range h.buckets {
		out.Buckets[i] = h.buckets[i].Load()
	}
	return out
}

// StatsSnapshot is a plain-data copy of a ProcStats block, safe to take
// while the process is still running.
type StatsSnapshot struct {
	Ops              uint64
	Dispatches       uint64
	Preemptions      uint64
	MaxPreemptDepth  uint64
	CAS2GuardRetries uint64
	Latency          *metrics.Hist
}

// Stats snapshots this process's counter block; nil when the world's
// metrics layer is off.
func (p *Proc) Stats() *StatsSnapshot {
	s := p.stats
	if s == nil {
		return nil
	}
	return &StatsSnapshot{
		Ops:              s.Ops.Load(),
		Dispatches:       s.Dispatches.Load(),
		Preemptions:      s.Preemptions.Load(),
		MaxPreemptDepth:  s.MaxPreemptDepth.Load(),
		CAS2GuardRetries: s.CAS2GuardRetries.Load(),
		Latency:          s.hist.snapshot(),
	}
}

// maxDepth raises MaxPreemptDepth to d if larger. Single writer, so a
// load-check-store is enough; the atomic store keeps readers race-clean.
func (s *ProcStats) maxDepth(d uint64) {
	if d > s.MaxPreemptDepth.Load() {
		s.MaxPreemptDepth.Store(d)
	}
}

// recKind classifies a flight-recorder event. The set mirrors exactly
// what tracex.Build consumes: scheduler events open and close slice
// spans, annotations open/close op spans and carry causality.
type recKind uint8

const (
	evInvoke recKind = iota + 1
	evResponse
	evDispatch
	evPreempt
	evComplete
	evHelp
	evCASFail
)

// recEvent is one flight-recorder entry: 40 bytes, no pointers, so the
// ring never allocates after construction.
type recEvent struct {
	seq  uint64
	t    int64 // ns since the obs epoch
	a, b int64 // payload (help target; casfail winner/addr)
	kind recKind
}

// evRing is a single-writer overwrite-oldest ring. The owning goroutine
// is the only writer; it is read only after the goroutine joins.
type evRing struct {
	buf []recEvent
	n   uint64 // total events ever recorded
}

func (r *evRing) push(ev recEvent) {
	r.buf[r.n%uint64(len(r.buf))] = ev
	r.n++
}

// oldestFirst returns the retained events in recording order, plus the
// number overwritten.
func (r *evRing) oldestFirst() ([]recEvent, uint64) {
	if r.n <= uint64(len(r.buf)) {
		return r.buf[:r.n], 0
	}
	dropped := r.n - uint64(len(r.buf))
	start := int(r.n % uint64(len(r.buf)))
	out := make([]recEvent, 0, len(r.buf))
	out = append(out, r.buf[start:]...)
	out = append(out, r.buf[:start]...)
	return out, dropped
}

// rec records one flight-recorder event. Callers guard with p.ring != nil.
func (p *Proc) rec(kind recKind, a, b int64) {
	p.ring.push(recEvent{
		seq:  p.obs.seq.Add(1),
		t:    int64(time.Since(p.obs.epoch)),
		a:    a,
		b:    b,
		kind: kind,
	})
}

// DroppedEvents returns how many flight-recorder events were overwritten
// across all processes (0 when every ring kept everything).
func (w *World) DroppedEvents() uint64 {
	if w.obs == nil {
		return 0
	}
	var total uint64
	for _, p := range w.obs.procs {
		if p.ring != nil && p.ring.n > uint64(len(p.ring.buf)) {
			total += p.ring.n - uint64(len(p.ring.buf))
		}
	}
	return total
}

// DrainTrace merges every process's flight-recorder ring into one
// trace.Log in global causal (sequence) order. Call it only after all
// process goroutines have joined. It returns nil when the recorder was
// not enabled.
//
// Timestamps are wall-clock ns since the obs epoch, clamped to be
// monotone per CPU: events on one shard are serialized by the shard
// hand-off protocol, so sequence order is their real order, but an
// annotation recorded outside the shard (an invoke while another process
// runs) can carry a clock reading that lags a causally-later event;
// clamping repairs exactly those, preserving order.
func (w *World) DrainTrace() *trace.Log {
	if w.obs == nil || !w.obs.cfg.Recorder {
		return nil
	}
	type drained struct {
		recEvent
		slot, cpu int
	}
	var all []drained
	for _, p := range w.obs.procs {
		if p.ring == nil {
			continue
		}
		evs, _ := p.ring.oldestFirst()
		for _, ev := range evs {
			all = append(all, drained{recEvent: ev, slot: p.slot, cpu: p.cpu})
		}
	}
	sort.Slice(all, func(i, j int) bool { return all[i].seq < all[j].seq })

	l := &trace.Log{}
	lastT := map[int]int64{}
	for _, d := range all {
		t := d.t
		if last, ok := lastT[d.cpu]; ok && t < last {
			t = last
		}
		lastT[d.cpu] = t
		ev := trace.Event{
			Time: t, CPU: d.cpu, Proc: d.slot,
			ProcName: procName(d.slot),
		}
		switch d.kind {
		case evInvoke:
			ev.Kind = trace.KindAnnotate
			ev.Key = "invoke"
			ev.Args = []trace.Field{trace.I("p", int64(d.slot))}
		case evResponse:
			ev.Kind = trace.KindAnnotate
			ev.Key = "response"
			ev.Args = []trace.Field{trace.I("p", int64(d.slot))}
		case evDispatch:
			ev.Kind = trace.KindDispatch
		case evPreempt:
			ev.Kind = trace.KindPreempt
		case evComplete:
			ev.Kind = trace.KindComplete
		case evHelp:
			ev.Kind = trace.KindAnnotate
			ev.Key = "help"
			ev.Args = []trace.Field{trace.I("p", d.a)}
		case evCASFail:
			ev.Kind = trace.KindAnnotate
			ev.Key = "casfail"
			ev.Args = []trace.Field{trace.I("winner", d.a), trace.I("addr", d.b)}
		default:
			continue
		}
		l.Append(ev)
	}
	return l
}

func procName(slot int) string {
	// Small-int names dominate; avoid fmt on the drain path.
	const digits = "0123456789"
	if slot < 10 {
		return "g" + digits[slot:slot+1]
	}
	if slot < 100 {
		return "g" + digits[slot/10:slot/10+1] + digits[slot%10:slot%10+1]
	}
	buf := []byte{'g'}
	var rec func(n int)
	rec = func(n int) {
		if n >= 10 {
			rec(n / 10)
		}
		buf = append(buf, digits[n%10])
	}
	rec(slot)
	return string(buf)
}
