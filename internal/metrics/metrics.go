// Package metrics is the run-report subsystem: a zero-dependency,
// deterministic record of what a simulation run actually did — memory steps,
// CAS failures, preemptions, helping, and virtual-time response figures.
//
// The paper's central claim is quantitative: every operation completes
// within a bounded number of its own steps plus bounded interference from
// higher-priority processes (via helping). The rest of this repository can
// prove an execution linearizable; this package makes the *cost* of the
// execution observable, so the bound itself becomes a testable assertion
// (Report.AssertWaitFree) and a perf trajectory (the BENCH_*.json files
// written by cmd/wfbench) rather than prose.
//
// Layering: metrics is a leaf package — internal/shmem and internal/sched
// import it to fill in counters, and internal/sched builds the final Report
// (sched.Sim.Report), so no import cycles arise. Everything here is plain
// data plus arithmetic; collection never charges simulated time, so
// instrumented runs execute schedules identical to uninstrumented ones.
package metrics

import (
	"encoding/json"
	"fmt"
	"io"
	"math/bits"
	"sort"
	"strings"
)

// OpCounts tallies the shared-memory operations executed by one simulated
// process (or by setup code, or by a whole run). CAS/CAS2/CCAS count
// attempts; the *Fail fields count the subset that did not swap.
type OpCounts struct {
	Loads    uint64 `json:"loads"`
	Stores   uint64 `json:"stores"`
	CAS      uint64 `json:"cas"`
	CASFail  uint64 `json:"cas_fail"`
	CAS2     uint64 `json:"cas2"`
	CAS2Fail uint64 `json:"cas2_fail"`
	CCAS     uint64 `json:"ccas"`
	CCASFail uint64 `json:"ccas_fail"`
}

// Steps returns the total memory operations (every load, store and
// synchronization attempt counts as one step, exactly as shmem charges
// them).
func (c OpCounts) Steps() uint64 {
	return c.Loads + c.Stores + c.CAS + c.CAS2 + c.CCAS
}

// Fails returns the total failed synchronization attempts.
func (c OpCounts) Fails() uint64 { return c.CASFail + c.CAS2Fail + c.CCASFail }

// Add accumulates o into c.
func (c *OpCounts) Add(o OpCounts) {
	c.Loads += o.Loads
	c.Stores += o.Stores
	c.CAS += o.CAS
	c.CASFail += o.CASFail
	c.CAS2 += o.CAS2
	c.CAS2Fail += o.CAS2Fail
	c.CCAS += o.CCAS
	c.CCASFail += o.CCASFail
}

// Summary is a min/p50/p95/max digest of a sample set of virtual times.
type Summary struct {
	Count int   `json:"count"`
	Min   int64 `json:"min"`
	P50   int64 `json:"p50"`
	P95   int64 `json:"p95"`
	Max   int64 `json:"max"`
}

// Summarize digests samples. Percentiles use the deterministic
// floor((n-1)·p/100) rank on the sorted samples, so equal inputs always
// produce equal summaries. An empty sample set yields the zero Summary.
func Summarize(samples []int64) Summary {
	if len(samples) == 0 {
		return Summary{}
	}
	s := append([]int64(nil), samples...)
	sort.Slice(s, func(i, j int) bool { return s[i] < s[j] })
	rank := func(pct int) int64 { return s[(len(s)-1)*pct/100] }
	return Summary{
		Count: len(s),
		Min:   s[0],
		P50:   rank(50),
		P95:   rank(95),
		Max:   s[len(s)-1],
	}
}

// String renders the summary compactly for terminal reports
// ("n=12 min=34 p50=40 p95=180 max=210"); the zero Summary renders "n=0".
func (s Summary) String() string {
	if s.Count == 0 {
		return "n=0"
	}
	return fmt.Sprintf("n=%d min=%d p50=%d p95=%d max=%d", s.Count, s.Min, s.P50, s.P95, s.Max)
}

// HistBuckets is the fixed bucket count of Hist. Bucket 0 counts
// non-positive samples; bucket i (i >= 1) counts samples v with
// 2^(i-1) <= v < 2^i; the last bucket additionally catches everything
// larger. 48 buckets cover [1ns, ~3.3 days) when samples are
// nanoseconds, which is every latency a run can plausibly produce.
const HistBuckets = 48

// Hist is a fixed-bucket logarithmic (power-of-two) histogram. It is the
// report-side shape of the native backend's lock-free latency histograms:
// collection happens in per-goroutine atomic bucket blocks
// (internal/native) and is drained into this plain-data form post-run.
// The fixed bucket layout is what makes the hot path lock-free and
// allocation-free — observing a sample is one atomic increment, never a
// resize.
type Hist struct {
	Count   uint64              `json:"count"`
	Buckets [HistBuckets]uint64 `json:"buckets"`
}

// HistBucket returns the bucket index for a sample value.
func HistBucket(v int64) int {
	if v <= 0 {
		return 0
	}
	i := bits.Len64(uint64(v))
	if i >= HistBuckets {
		return HistBuckets - 1
	}
	return i
}

// histBound returns the inclusive upper bound of bucket i (the value
// reported for samples that landed in it).
func histBound(i int) int64 {
	if i <= 0 {
		return 0
	}
	return int64(1)<<uint(i) - 1
}

// Observe records one sample.
func (h *Hist) Observe(v int64) {
	h.Buckets[HistBucket(v)]++
	h.Count++
}

// Add accumulates o into h.
func (h *Hist) Add(o *Hist) {
	for i := range h.Buckets {
		h.Buckets[i] += o.Buckets[i]
	}
	h.Count += o.Count
}

// Quantile returns the upper bound of the bucket holding the pct-th
// percentile sample (the same floor((n-1)·p/100) rank Summarize uses), so
// the figure is exact to within one power of two. An empty histogram
// returns 0.
func (h *Hist) Quantile(pct int) int64 {
	if h.Count == 0 {
		return 0
	}
	rank := (h.Count - 1) * uint64(pct) / 100
	var cum uint64
	for i, b := range h.Buckets {
		cum += b
		if b > 0 && cum > rank {
			return histBound(i)
		}
	}
	return histBound(HistBuckets - 1)
}

// Summary digests the histogram into the min/p50/p95/max shape the rest of
// the report uses. Figures are bucket upper bounds (exact to within one
// power of two); Min is the lower bound of the first occupied bucket.
func (h *Hist) Summary() Summary {
	if h.Count == 0 {
		return Summary{}
	}
	s := Summary{Count: int(h.Count), P50: h.Quantile(50), P95: h.Quantile(95)}
	for i, b := range h.Buckets {
		if b == 0 {
			continue
		}
		s.Max = histBound(i)
		if s.Min == 0 && s.Max != 0 {
			s.Min = histBound(i-1) + 1
		}
	}
	if h.Buckets[0] > 0 {
		s.Min = 0
	}
	return s
}

// ProcReport is the per-process slice of a Report.
type ProcReport struct {
	ID   int    `json:"id"`
	Name string `json:"name"`
	CPU  int    `json:"cpu"`
	Prio int    `json:"prio"`
	Slot int    `json:"slot"`

	// ReleasedVT/StartedVT/CompletedVT are virtual times on the process's
	// processor. DispatchLatencyVT is Started-Released (time from arrival
	// to first dispatch); ResponseVT is Completed-Released.
	ReleasedVT        int64 `json:"released_vt"`
	StartedVT         int64 `json:"started_vt"`
	CompletedVT       int64 `json:"completed_vt"`
	DispatchLatencyVT int64 `json:"dispatch_latency_vt"`
	ResponseVT        int64 `json:"response_vt"`

	// Slices is the number of scheduler slices the process executed;
	// Dispatches how many times it was placed on its processor;
	// Preemptions how many times a higher-priority arrival displaced it.
	Slices      uint64 `json:"slices"`
	Dispatches  int    `json:"dispatches"`
	Preemptions int    `json:"preemptions"`

	// Mem tallies the process's shared-memory operations.
	Mem OpCounts `json:"mem"`

	// HelpGiven counts help invocations this process performed on another
	// process's announced operation; HelpReceived counts help invocations
	// other processes performed on operations announced under this
	// process's slot.
	HelpGiven    int `json:"help_given"`
	HelpReceived int `json:"help_received"`

	// Interference is the report-builder's count of interference sources
	// for this process: its preemptions plus the number of other
	// processes running on different processors. AssertWaitFree scales
	// its per-interferer allowance by this figure.
	Interference int `json:"interference"`

	// OpTime digests the per-operation response times the process
	// recorded via Env.RecordOp (empty when the workload records none).
	OpTime Summary `json:"op_time_vt"`

	// Latency is the native backend's per-goroutine wall-clock latency
	// histogram (nanoseconds per abstract op, Begin to End). It is nil on
	// simulator reports, so the simulator's golden JSON is unchanged.
	Latency *Hist `json:"latency_ns,omitempty"`

	// MaxPreemptDepth is the deepest preemption stack observed under the
	// process on its native shard (zero on simulator reports).
	MaxPreemptDepth int `json:"max_preempt_depth,omitempty"`

	// CAS2GuardRetries counts native CAS2 guard-word acquisition retries —
	// the spin iterations the software-emulated double-word CAS spent
	// waiting for the guard (zero on simulator reports, where CAS2 is a
	// primitive).
	CAS2GuardRetries uint64 `json:"cas2_guard_retries,omitempty"`
}

// Report is the aggregate run report: per-process detail plus object-level
// summaries. It is pure data — construct it via sched.Sim.Report, or
// directly in tests.
type Report struct {
	// Object names the data structure (or scenario) under measurement.
	Object string `json:"object"`
	// Seed, Processors, Granularity and SyncCost identify the schedule:
	// together with the job set they are a complete reproducer.
	Seed        int64  `json:"seed"`
	Processors  int    `json:"processors"`
	Granularity string `json:"granularity"`
	SyncCost    int64  `json:"sync_cost"`

	// Policy and Arrival name the scheduling discipline and arrival trace
	// the run used, when they differ from the defaults (strict priority;
	// the driver's built-in release points). Empty means default and is
	// omitted from JSON, so the golden report files stay byte-stable.
	Policy  string `json:"policy,omitempty"`
	Arrival string `json:"arrival,omitempty"`

	// ElapsedVT is the makespan; Slices the global slice count.
	ElapsedVT int64  `json:"elapsed_vt"`
	Slices    uint64 `json:"slices"`

	// Mem is the whole run's operation tally (setup included).
	Mem OpCounts `json:"mem_total"`

	Procs []ProcReport `json:"procs"`

	// Response and DispatchLatency digest the per-process figures;
	// OpTime digests every Env.RecordOp sample of the run.
	Response        Summary `json:"response_vt"`
	DispatchLatency Summary `json:"dispatch_latency_vt"`
	OpTime          Summary `json:"op_time_vt"`

	// Object-level totals.
	HelpGiven    int `json:"help_given_total"`
	HelpReceived int `json:"help_received_total"`
	Preemptions  int `json:"preemptions_total"`

	// OpLatency is the merged per-goroutine latency histogram of a native
	// run (nil on simulator reports); CAS2GuardRetries the run's total
	// guard-word retries. Both are omitted from simulator JSON so the
	// golden report files are byte-stable.
	OpLatency        *Hist  `json:"op_latency_ns,omitempty"`
	CAS2GuardRetries uint64 `json:"cas2_guard_retries_total,omitempty"`
}

// Finalize recomputes the object-level summaries and totals from Procs.
// Builders call it after filling in the per-process slices; tests that
// construct Reports by hand may call it too.
func (r *Report) Finalize() {
	responses := make([]int64, 0, len(r.Procs))
	latencies := make([]int64, 0, len(r.Procs))
	r.HelpGiven, r.HelpReceived, r.Preemptions = 0, 0, 0
	for i := range r.Procs {
		p := &r.Procs[i]
		responses = append(responses, p.ResponseVT)
		latencies = append(latencies, p.DispatchLatencyVT)
		r.HelpGiven += p.HelpGiven
		r.HelpReceived += p.HelpReceived
		r.Preemptions += p.Preemptions
	}
	r.Response = Summarize(responses)
	r.DispatchLatency = Summarize(latencies)
}

// JSON renders the report as indented JSON (the BENCH_*.json schema; see
// EXPERIMENTS.md "Run reports").
func (r *Report) JSON() ([]byte, error) {
	return json.MarshalIndent(r, "", "  ")
}

// WriteJSON writes the JSON rendering followed by a newline.
func (r *Report) WriteJSON(w io.Writer) error {
	b, err := r.JSON()
	if err != nil {
		return err
	}
	b = append(b, '\n')
	_, err = w.Write(b)
	return err
}

// WriteText pretty-prints the report for terminals (cmd/wftrace -report).
func (r *Report) WriteText(w io.Writer) error {
	var sb strings.Builder
	fmt.Fprintf(&sb, "run report: %s (seed %d, P=%d, %s, synccost %d)\n",
		r.Object, r.Seed, r.Processors, r.Granularity, r.SyncCost)
	fmt.Fprintf(&sb, "  makespan %d vt over %d slices; %d preemptions, %d helps given, %d received\n",
		r.ElapsedVT, r.Slices, r.Preemptions, r.HelpGiven, r.HelpReceived)
	fmt.Fprintf(&sb, "  memory: %d steps (%d loads, %d stores, %d cas [%d failed], %d cas2 [%d failed], %d ccas [%d failed])\n",
		r.Mem.Steps(), r.Mem.Loads, r.Mem.Stores, r.Mem.CAS, r.Mem.CASFail,
		r.Mem.CAS2, r.Mem.CAS2Fail, r.Mem.CCAS, r.Mem.CCASFail)
	fmt.Fprintf(&sb, "  response vt: min %d p50 %d p95 %d max %d\n",
		r.Response.Min, r.Response.P50, r.Response.P95, r.Response.Max)
	if r.OpTime.Count > 0 {
		fmt.Fprintf(&sb, "  per-op vt (%d ops): min %d p50 %d p95 %d max %d\n",
			r.OpTime.Count, r.OpTime.Min, r.OpTime.P50, r.OpTime.P95, r.OpTime.Max)
	}
	fmt.Fprintf(&sb, "  %-10s %-4s %-5s %-5s %8s %7s %8s %6s %6s %6s %6s %9s\n",
		"proc", "cpu", "prio", "slot", "steps", "casfail", "slices", "prempt", "hgive", "hrecv", "disp", "response")
	for _, p := range r.Procs {
		fmt.Fprintf(&sb, "  %-10s %-4d %-5d %-5d %8d %7d %8d %6d %6d %6d %6d %9d\n",
			p.Name, p.CPU, p.Prio, p.Slot, p.Mem.Steps(), p.Mem.Fails(),
			p.Slices, p.Preemptions, p.HelpGiven, p.HelpReceived,
			p.DispatchLatencyVT, p.ResponseVT)
	}
	_, err := io.WriteString(w, sb.String())
	return err
}

// Throughput converts an operation count over an elapsed duration into
// ops/sec. The elapsed figure is in nanoseconds for native (wall-clock)
// runs; simulator callers pass virtual-time units and read the result as
// ops per 10^9 vt units — the shared scale both backends' BENCH entries
// report. Non-positive elapsed yields 0 rather than Inf, so a degenerate
// run stays JSON-encodable.
func Throughput(ops int, elapsedNs int64) float64 {
	if elapsedNs <= 0 || ops <= 0 {
		return 0
	}
	return float64(ops) / (float64(elapsedNs) / 1e9)
}

// AssertWaitFree checks the paper's bound shape on every process: a
// process's executed memory steps must not exceed maxOwnSteps (the
// interference-free cost of its whole body) plus perInterferer steps for
// each unit of interference it suffered (preemptions by higher-priority
// arrivals, plus processes concurrently active on other processors — each
// of which can force at most a bounded amount of helping work onto the
// process). A violation means an operation's step count grew with
// something other than interference — a retry loop, a livelock, a helping
// bug — and the returned error carries the offending process's counts and
// the run's (seed, processors, granularity) identity, which together with
// the job set reproduce the schedule exactly.
func (r *Report) AssertWaitFree(maxOwnSteps, perInterferer int) error {
	if maxOwnSteps < 0 || perInterferer < 0 {
		return fmt.Errorf("metrics: negative bound (maxOwnSteps=%d perInterferer=%d)", maxOwnSteps, perInterferer)
	}
	var viol []string
	for _, p := range r.Procs {
		steps := p.Mem.Steps()
		bound := uint64(maxOwnSteps) + uint64(perInterferer)*uint64(p.Interference)
		if steps > bound {
			viol = append(viol, fmt.Sprintf(
				"process %q (id %d, cpu %d, prio %d): %d steps > bound %d (= %d own + %d × %d interference; %d preemptions, %d helps given)",
				p.Name, p.ID, p.CPU, p.Prio, steps, bound,
				maxOwnSteps, perInterferer, p.Interference, p.Preemptions, p.HelpGiven))
		}
	}
	if viol == nil {
		return nil
	}
	return fmt.Errorf("metrics: wait-freedom bound violated on %s (seed %d, P=%d, %s):\n  %s",
		r.Object, r.Seed, r.Processors, r.Granularity, strings.Join(viol, "\n  "))
}
