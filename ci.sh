#!/bin/sh
# ci.sh — the repo's tier-1 gate, runnable anywhere the Go toolchain is.
#
#   ./ci.sh
#
# Runs gofmt/vet, a full build, the full test suite, and a race-detector
# pass over the packages with real goroutine hand-offs (the scheduler's
# coroutine rendezvous, the trace log, the parallel sweep harness, and
# the native-hardware backend with its whole-registry stress suite).
# Everything is stdlib-only and deterministic, so a green run on one
# machine is a green run on all. Then end-to-end smokes into artifacts/
# (which stays out of git): the paper's experiment table against its
# committed golden, the Figure 2 trace exports (perfetto, gantt, csv), the
# parallel-vs-serial byte-identity of wfcheck's sweep output (with and
# without -cover), the wfbench full-matrix sweep (which asserts the same
# identity internally and records timing plus schedule-space coverage in
# BENCH_sweep.json), the native metrics report inside BENCH_native.json,
# and a flight-recorder Perfetto export of a real-hardware run.
set -eux

test -z "$(gofmt -l .)"
go vet ./...
go build ./...
go test ./...
go test -race ./internal/sched/... ./internal/trace/... ./internal/tracex/... ./internal/harness/... ./internal/linz/...

# Native backend: every registered object on real goroutines under the
# race detector — 32-wide stress with conservation-law oracles plus the
# black-box differential tests against the Wing-Gong engine — and the
# Figure 8 software CCAS, whose GuardedCAS window runs straight on real
# goroutines. The registry's native harness (the one place goroutines are
# spawned against a native world) runs its own tests under the detector too.
go test -race -short ./internal/native/... ./internal/prim/...
# A native memory step is one atomic access, one counter increment and one
# flag load: the shard preemption check (Proc.point) must stay within the
# compiler's inlining budget, or every Load/Store/CAS pays a call again.
go build -gcflags=-m ./internal/native 2>&1 | grep -q 'can inline (\*Proc).point'
# Every hop of a validated read is one managed-word Read, a load and a mask:
# it must inline into the objects, or each hop pays a call before its load.
go build -gcflags=-m ./internal/prim 2>&1 | grep -q 'can inline Impl.Read'
# Every simulated access is a preemption point: Mem.Load must stay cheap
# enough to inline, or each Load pays a call on top of its decision.
go build -gcflags=-m ./internal/shmem 2>&1 | grep -q 'can inline (\*Mem).Load'
# ...and the simulator's one Load path must actually inline it.
go build -gcflags=-m ./internal/sched 2>&1 | grep -q 'inlining call to shmem.(\*Mem).Load'
go test -race -short -run Native ./internal/registry/

# Service subsystem: hot-key counter and token-bucket limiter, all four
# store variants on real goroutines under the race detector, with the
# conservation oracles (counts never lost or doubled; per-tenant windows
# never over-admitted).
go test -race -short ./internal/service/...
# Every store runs its kind's one transition: it must stay cheap enough to
# inline, or each request of the wait-free counter pays a call per attempt.
go build -gcflags=-m ./internal/service 2>&1 | grep -q 'can inline (\*StoreConfig).step'

# Spawn-site guard: drivers declare their runs as registry casts and spawn
# them through Cast.Spawn. These are the non-test Go files (bench/ aside)
# that still build a sched.JobSpec or call SpawnAt themselves; moving a
# driver onto casts removes its entry, and nothing may add one.
test "$(grep -rlE --include='*.go' --exclude='*_test.go' \
        --exclude-dir=bench --exclude-dir=.bench_build --exclude-dir=artifacts \
        'sched\.JobSpec\{|\.SpawnAt\(' . | LC_ALL=C sort)" = "$(printf '%s\n' \
    ./cmd/wfbench/core.go \
    ./examples/kernelqueue/main.go \
    ./internal/paper/experiments.go \
    ./internal/registry/cast.go \
    ./internal/service/simdriver.go \
    ./waitfree.go)"

# The registry must cover every internal/core/ and internal/baseline/
# package; this is the gate that keeps "drive everything through the
# registry" honest.
go test ./internal/registry/ -run TestRegistryCompleteness

# Mutant corpus: each hand mutant is compiled in only under its build tag
# (the package's mut_*.go files), as tag:package:test, the test that must
# kill it. The package must build with the tag, and the test must fail:
# a mutant that passes is a guard that no longer guards.
for m in \
    mut_epoch_after_rv:./internal/core/multilist:TestEpochWindowSweep \
    mut_epoch_winner_only:./internal/core/multilist:TestEpochWindowSweep \
    mut_read_unvalidated:./internal/core/multilist:TestReadRecycleWindow \
    mut_tag8:./internal/prim:TestTaggedWrapInWindow \
    mut_svc_stale_refill:./internal/service:TestSimAllVariants; do
    tag=${m%%:*}
    rest=${m#*:}
    pkg=${rest%%:*}
    killer=${rest#*:}
    go vet -tags "$tag" "$pkg"
    if go test -count=1 -tags "$tag" -run "^$killer\$" "$pkg" > /dev/null; then
        echo "ci.sh: mutant $tag survived $killer" >&2
        exit 1
    fi
done

mkdir -p artifacts

go build -o /dev/null ./cmd/wftrace
go run ./cmd/wftrace -object unilist -seed 1 -pattern stagger -export perfetto -o artifacts/fig2.trace.json
test -s artifacts/fig2.trace.json
# The same Figure 2 run as the raw event log plus Gantt chart (whose cpu0
# row opens with the victim p) and as CSV.
go run ./cmd/wftrace -object unilist -seed 1 -pattern stagger -export gantt -o artifacts/fig2.gantt.txt
test -s artifacts/fig2.gantt.txt
grep -q '^cpu0 p' artifacts/fig2.gantt.txt
go run ./cmd/wftrace -object unilist -seed 1 -pattern stagger -export csv -o artifacts/fig2.csv
test -s artifacts/fig2.csv

go run ./cmd/wfcheck -max 40 -par 1 > artifacts/wfcheck_serial.txt
go run ./cmd/wfcheck -max 40 -par 0 > artifacts/wfcheck_par.txt
cmp artifacts/wfcheck_serial.txt artifacts/wfcheck_par.txt

# Schedule-space coverage: the -cover accounting must be byte-identical at
# any worker count (signatures fold post-merge in suite order) and must
# actually report distinct-behavior lines.
go run ./cmd/wfcheck -max 40 -cover -par 1 > artifacts/wfcheck_cover_serial.txt
go run ./cmd/wfcheck -max 40 -cover -par 0 > artifacts/wfcheck_cover_par.txt
cmp artifacts/wfcheck_cover_serial.txt artifacts/wfcheck_cover_par.txt
grep -q "cover" artifacts/wfcheck_cover_serial.txt
grep -q "curve" artifacts/wfcheck_cover_serial.txt

# Byte-identity goldens, pinned before the simulator fast path (heap ready
# queues, Sim pooling, zero-alloc tracing, direct hand-off) landed: the
# optimized core must not change one observable byte of the sweep output,
# the wftrace text rendering, or the run reports.
cmp testdata/golden/wfcheck_max40.txt artifacts/wfcheck_serial.txt
go run ./cmd/wftrace -object unilist -seed 1 -pattern stagger > artifacts/wftrace_unilist_stagger.txt
cmp testdata/golden/wftrace_unilist_stagger.txt artifacts/wftrace_unilist_stagger.txt
# After an intended change to a run report, regenerate the goldens with
#   go run ./cmd/wfbench -exp report -outdir testdata/golden/report
# and commit only the reports that moved, with the change that moved them.
mkdir -p artifacts/report
go run ./cmd/wfbench -exp report -outdir artifacts/report > /dev/null
for f in testdata/golden/report/*.json; do
    cmp "$f" "artifacts/report/$(basename "$f")"
done

# The paper's experiment table (internal/paper) at the paper's scale
# (50,000 ops, 4 processors, seed 11): wfbench exits nonzero if any band
# fails, and the numbers must match the committed golden byte for byte.
# After an intended change to a number, regenerate the golden with
#   go run ./cmd/wfbench -exp paper -outdir testdata/golden
# and commit it with the change that moved the number.
mkdir -p artifacts/paper
go run ./cmd/wfbench -exp paper -outdir artifacts/paper > /dev/null
cmp testdata/golden/BENCH_paper.json artifacts/paper/BENCH_paper.json

go run ./cmd/wfbench -exp sweep -sweepseeds 1 -outdir artifacts
test -s artifacts/BENCH_sweep.json
grep -q '"coverage"' artifacts/BENCH_sweep.json
grep -q '"saturation"' artifacts/BENCH_sweep.json

# Native smoke: real-hardware ops/sec for all objects plus the sync.Mutex
# reference (timings vary by host, so BENCH_native.json is an artifact,
# not a golden). The native metrics layer rides along: every object entry
# must carry an aggregated report with its op-latency histogram.
go run ./cmd/wfbench -exp native -ops 4000 -outdir artifacts > /dev/null
test -s artifacts/BENCH_native.json
grep -q '"op_latency_ns"' artifacts/BENCH_native.json
grep -q '"go_version"' artifacts/BENCH_native.json
# Only the wait-free entries run on sharded worlds: the baselines' free
# worlds and the mutex reference carry no "shards" key.
test "$(grep -c '"shards":' artifacts/BENCH_native.json)" = \
    "$(grep -c '"kind": "waitfree"' artifacts/BENCH_native.json)"

# Service smoke: the traffic subsystem's full matrix — both service
# objects, all four variants, both backends — into BENCH_service.json.
# Every variant must appear with a nonzero logical-write rate, and the
# simulator half is deterministic (pinned byte-for-byte by the
# internal/service golden test; native timings vary by host).
go run ./cmd/wfbench -exp service -ops 2000 -procs 4 -outdir artifacts > /dev/null
test -s artifacts/BENCH_service.json
for v in waitfree atomic lock sharded; do
    grep -q "\"variant\": \"$v\"" artifacts/BENCH_service.json
done
grep -q '"backend": "sim"' artifacts/BENCH_service.json
grep -q '"backend": "native"' artifacts/BENCH_service.json
# (A bare `! grep` never trips set -e, so the zero-rate check exits by hand.)
if grep -q '"writes_per_sec": 0[,}]' artifacts/BENCH_service.json; then
    echo "ci: a service variant reports zero logical writes per second" >&2
    exit 1
fi
grep -q '"policy_table"' artifacts/BENCH_service.json

# Flight recorder: a native run drained into the standard span pipeline
# must export a non-empty Perfetto trace of real-hardware causality.
go run ./cmd/wftrace -native -object uniqueue -procs 4 -ops 10 \
    -export perfetto -o artifacts/uniqueue.native.trace.json > /dev/null
test -s artifacts/uniqueue.native.trace.json

# Black-box mode: randomized adversary schedules judged by the
# history-based linearizability engine, all objects (baselines included),
# same parallel-vs-serial byte-identity contract as the sweep mode.
go run ./cmd/wfcheck -linz -rand 25 -par 1 > artifacts/wfcheck_linz.txt
go run ./cmd/wfcheck -linz -rand 25 -par 0 > artifacts/wfcheck_linz_par.txt
cmp artifacts/wfcheck_linz.txt artifacts/wfcheck_linz_par.txt
# After an intended change to an object's history, regenerate the golden with
#   go run ./cmd/wfcheck -linz -rand 25 -par 1 > testdata/golden/wfcheck_linz25.txt
cmp testdata/golden/wfcheck_linz25.txt artifacts/wfcheck_linz.txt

# Policy layer: off-default disciplines keep the parallel-vs-serial
# byte-identity contract. The reverse-priority stressor (lower priority
# preempts, higher never does) sweeps one object clean; the fcfs+bursty
# pair — non-preemptive dispatch under open-loop arrivals — is pinned to a
# golden so the policy/arrival seams cannot drift silently.
go run ./cmd/wfcheck -suite uniqueue -max 40 -policy reverse-priority -par 1 > artifacts/wfcheck_revprio.txt
go run ./cmd/wfcheck -suite uniqueue -max 40 -policy reverse-priority -par 0 > artifacts/wfcheck_revprio_par.txt
cmp artifacts/wfcheck_revprio.txt artifacts/wfcheck_revprio_par.txt
go run ./cmd/wfcheck -suite uniqueue -max 40 -policy fcfs -arrival bursty -par 1 > artifacts/wfcheck_fcfs_bursty.txt
go run ./cmd/wfcheck -suite uniqueue -max 40 -policy fcfs -arrival bursty -par 0 > artifacts/wfcheck_fcfs_bursty_par.txt
cmp artifacts/wfcheck_fcfs_bursty.txt artifacts/wfcheck_fcfs_bursty_par.txt
cmp testdata/golden/wfcheck_fcfs_bursty.txt artifacts/wfcheck_fcfs_bursty.txt

# Pruned sweep: with -prune off the output is byte-identical to the plain
# sweep (asserted above via the golden); with it on, the pruned counts
# must appear and the par-vs-serial identity must still hold.
go run ./cmd/wfcheck -max 120 -prune -par 1 > artifacts/wfcheck_prune.txt
go run ./cmd/wfcheck -max 120 -prune -par 0 > artifacts/wfcheck_prune_par.txt
cmp artifacts/wfcheck_prune.txt artifacts/wfcheck_prune_par.txt
grep -q "pruned" artifacts/wfcheck_prune.txt

# Swarm smoke: a small-budget stratified sampling campaign must keep the
# byte-identity contract at any -par and render the coverage block with
# its saturation curve. (Real campaigns run millions of schedules; see
# EXPERIMENTS.md "Scaling the sweep to millions of schedules".)
go run ./cmd/wfcheck -swarm -budget 2000 -cover -par 1 > artifacts/wfcheck_swarm.txt
go run ./cmd/wfcheck -swarm -budget 2000 -cover -par 0 > artifacts/wfcheck_swarm_par.txt
cmp artifacts/wfcheck_swarm.txt artifacts/wfcheck_swarm_par.txt
grep -q "curve" artifacts/wfcheck_swarm.txt
grep -q "schedules total" artifacts/wfcheck_swarm.txt

# Native allocation gate: every core object's Begin/Apply/End hot path on
# real goroutines must allocate nothing (the Figure 8 window is one
# Ctx.GuardedCAS call, not a closure).
go test ./internal/registry/ -run TestNativeAllocGate -count=1

# Native layout gate: every object's per-slot and per-processor rows start
# a cache line and share it with nothing on native, and keep the dense
# layout (stride == width, same addresses) on the simulator.
go test ./internal/registry/ -run TestRowLayout -count=1

# Perf gates: -exp core re-measures the simulator core, where every slice
# ends in a scheduling decision, on a one-CPU loop and a two-CPU duet. It
# fails if either side's exact coroutine switch count differs from the
# committed baseline, if the loop allocates 0.01 or more per slice, or if
# the loop's ns/slice regresses more than 25% against the baseline. Set WF_SKIP_PERF_GATE=1 on
# hosts too noisy for timing assertions (it skips all three gates).
if [ -z "${WF_SKIP_PERF_GATE:-}" ]; then
    go run ./cmd/wfbench -exp core -outdir artifacts -corebaseline testdata/BENCH_core.json
fi
