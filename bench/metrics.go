package main

import (
	"fmt"
	"sort"
)

// metricDef is one reported metric. The tables below are the single source
// of the names, units, directions and bounds; BENCHMARK.json repeats them
// and TestBenchmarkJSONMatchesTables keeps the two equal.
type metricDef struct {
	Name   string  `json:"name"`
	Unit   string  `json:"unit"`
	Better string  `json:"better"`
	Bound  float64 `json:"bound,omitempty"`
}

// endToEnd is what a user of each workload sees. Every workload reports
// every one; "op" means the workload's unit of work (an object operation or
// service request on the native workloads, a checked schedule on
// sim-verify). The wall-clock metrics are host-normalized (host.go) and get
// wide bounds, because the reference host's speed still moves several
// percent between runs; the vt_* metrics are exact virtual time on the
// simulator, so their spread is the seed's alone. README.md records the
// measured spreads behind each bound.
var endToEnd = []metricDef{
	{"ops_per_s", "ops/s", "higher", 0.25},
	{"op_p50_us", "us", "lower", 0.25},
	{"op_p99_us", "us", "lower", 0.25},
	{"sim_ops_per_s", "ops/s", "higher", 0.25},
	{"vt_per_op", "vt", "lower", 0.08},
	{"vt_worst_op", "vt", "lower", 0.2},
	{"hi_vt_max", "vt", "lower", 0.2},
	{"setup_s", "s", "lower", 0.25},
	{"rss_peak_mb", "MiB", "lower", 0.2},
}

// perLayer splits the end-to-end numbers by layer (traced run only). A
// layer a workload does not exercise reports 0: the native layers on
// sim-verify, the checker layers on the native workloads.
var perLayer = []metricDef{
	// native: shard entry and exit around each operation.
	{"native.begin_ns.p50", "ns", "lower", 0},
	{"native.begin_ns.p99", "ns", "lower", 0},
	{"native.end_ns.p50", "ns", "lower", 0},
	// registry + core objects: Instance.Apply per op code.
	{"registry.apply_us.search.p50", "us", "lower", 0},
	{"registry.apply_us.search.p99", "us", "lower", 0},
	{"registry.apply_us.insert.p50", "us", "lower", 0},
	{"registry.apply_us.insert.p99", "us", "lower", 0},
	{"registry.apply_us.delete.p50", "us", "lower", 0},
	{"registry.apply_us.delete.p99", "us", "lower", 0},
	{"registry.apply_us.enqueue.p50", "us", "lower", 0},
	{"registry.apply_us.enqueue.p99", "us", "lower", 0},
	{"registry.apply_us.dequeue.p50", "us", "lower", 0},
	{"registry.apply_us.dequeue.p99", "us", "lower", 0},
	{"registry.ok_frac.search", "frac", "higher", 0},
	{"registry.ok_frac.insert", "frac", "higher", 0},
	{"registry.ok_frac.delete", "frac", "higher", 0},
	{"registry.ok_frac.enqueue", "frac", "higher", 0},
	{"registry.ok_frac.dequeue", "frac", "higher", 0},
	// shmem / prim: memory operations per op.
	{"shmem.steps_per_op", "count", "lower", 0},
	{"shmem.loads_per_op", "count", "lower", 0},
	{"shmem.cas_per_op", "count", "lower", 0},
	{"shmem.cas2_per_op", "count", "lower", 0},
	{"shmem.ccas_per_op", "count", "lower", 0},
	{"shmem.sync_fail_per_op", "count", "lower", 0},
	{"shmem.sync_ok_ratio", "frac", "higher", 0},
	// helping.
	{"helping.helps_per_op", "count", "lower", 0},
	// Go runtime, per op of the run's unit of work.
	{"go.allocs_per_op", "count", "lower", 0},
	{"go.bytes_per_op", "B", "lower", 0},
	{"go.gc_per_mop", "count", "lower", 0},
	// service store (counter-hot).
	{"service.apply_us.p50", "us", "lower", 0},
	{"service.apply_us.p99", "us", "lower", 0},
	{"service.retries_per_req", "count", "lower", 0},
	{"service.steps_per_req", "count", "lower", 0},
	{"service.lost", "count", "lower", 0},
	{"service.base_vt_p95", "vt", "lower", 0},
	{"service.hi_vt_p95", "vt", "lower", 0},
	// sched: the simulator phase of every workload.
	{"sched.ns_per_slice", "ns", "lower", 0},
	{"sched.slices", "count", "lower", 0},
	{"sched.dispatches", "count", "lower", 0},
	{"sched.preemptions", "count", "lower", 0},
	// explore / check: swarm throughput per core object (sim-verify).
	{"explore.sched_per_s.multihash", "1/s", "higher", 0},
	{"explore.sched_per_s.multilist", "1/s", "higher", 0},
	{"explore.sched_per_s.multimwcas", "1/s", "higher", 0},
	{"explore.sched_per_s.multiqueue", "1/s", "higher", 0},
	{"explore.sched_per_s.multistack", "1/s", "higher", 0},
	{"explore.sched_per_s.unihash", "1/s", "higher", 0},
	{"explore.sched_per_s.unilist", "1/s", "higher", 0},
	{"explore.sched_per_s.unimwcas", "1/s", "higher", 0},
	{"explore.sched_per_s.uniqueue", "1/s", "higher", 0},
	{"explore.sched_per_s.unistack", "1/s", "higher", 0},
	// linz: adversary execution and the history check.
	{"linz.execute_us", "us", "lower", 0},
	{"linz.check_us", "us", "lower", 0},
	{"linz.states_per_run", "count", "lower", 0},
	// workload: the simulator list runs.
	{"workload.base_op_vt", "vt", "lower", 0},
	{"workload.worst_over_base", "ratio", "lower", 0},
	// bench / host: diagnostics and the sync.Mutex reference.
	{"bench.host_slowdown", "ratio", "lower", 0},
	{"bench.raw_ops_per_s", "ops/s", "higher", 0},
	{"bench.loop_self_ns", "ns", "lower", 0},
	{"bench.trace_overhead_frac", "frac", "lower", 0},
	{"bench.op_p999_us", "us", "lower", 0},
	{"bench.op_max_us", "us", "lower", 0},
	{"ref.mutex_ops_per_s", "ops/s", "higher", 0},
	{"ref.ops_vs_mutex", "ratio", "higher", 0},
}

// result is what one workload run measured.
type result struct {
	attempted, failed int
	values            map[string]float64
	// samples records the sample count behind a percentile or median, for
	// the human-readable lines.
	samples map[string]int
}

func newResult() *result {
	return &result{values: map[string]float64{}, samples: map[string]int{}}
}

func (r *result) set(name string, v float64) { r.values[name] = v }

func (r *result) setN(name string, v float64, n int) {
	r.values[name] = v
	r.samples[name] = n
}

// metricValue is one entry of the printed metrics object.
type metricValue struct {
	Value float64 `json:"value"`
	Unit  string  `json:"unit"`
}

// collect returns the printed metrics for the run's mode. Every end-to-end
// metric must have been set (a missing one is a bug in the workload);
// per-layer metrics a workload does not reach default to 0.
func (r *result) collect(traced bool) (map[string]metricValue, error) {
	defs := endToEnd
	if traced {
		defs = perLayer
	}
	out := make(map[string]metricValue, len(defs))
	var missing []string
	for _, d := range defs {
		v, ok := r.values[d.Name]
		if !ok && !traced {
			missing = append(missing, d.Name)
		}
		out[d.Name] = metricValue{Value: v, Unit: d.Unit}
	}
	if missing != nil {
		sort.Strings(missing)
		return nil, fmt.Errorf("workload did not measure %v", missing)
	}
	return out, nil
}
