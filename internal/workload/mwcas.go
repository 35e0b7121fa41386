package workload

import (
	"errors"
	"fmt"
	"slices"

	"repro/internal/helping"
	"repro/internal/prim"
	"repro/internal/registry"
	"repro/internal/sched"
)

// MWCASKind selects the MWCAS implementation under test.
type MWCASKind string

// The MWCAS implementations the harness can run.
const (
	// MWCASUni is the uniprocessor Figure 3 algorithm (requires P=1).
	MWCASUni MWCASKind = "mwcas-uni"
	// MWCASMulti is the multiprocessor Figure 6 algorithm.
	MWCASMulti MWCASKind = "mwcas-multi"
)

// MWCASConfig parameterizes an MWCAS throughput run: processes perform
// read-compute-MWCAS transactions (the paper's Section 3.1 usage pattern)
// over a shared word set, retrying on conflict, under priority preemption
// bursts.
type MWCASConfig struct {
	Kind MWCASKind
	// Processors is P; Words is the shared word count; Width is the
	// number of words each transaction updates.
	Processors, Words, Width int
	// TotalCommits is the total number of committed transactions to
	// perform across all workers.
	TotalCommits int
	// BurstsPerCPU higher-priority jobs of BurstCommits each preempt the
	// base workers.
	BurstsPerCPU, BurstCommits int
	Seed                       int64
	// CC and Mode configure the multiprocessor object.
	CC   prim.Impl
	Mode helping.Mode
	// Granularity defaults to Coarse.
	Granularity sched.Granularity
	// Policy names the scheduling discipline; the same accept/refuse
	// gate as ListConfig.Policy applies (see PolicyAccepted).
	Policy string
}

// MWCASResult is the measured outcome.
type MWCASResult struct {
	Cfg      MWCASConfig
	Commits  int
	Failures int // failed attempts (application-level retries)
	Makespan int64
	WorstOp  int64 // worst single MWCAS call response
}

// mwcasObject maps the MWCAS kinds onto registry names.
var mwcasObject = map[MWCASKind]string{MWCASUni: "unimwcas", MWCASMulti: "multimwcas"}

// commits is an MWCAS job's script: read-modify-write transactions adding
// one to width distinct words out of words, drawn as the job runs from the
// stream Env.Rand hands job id in a run seeded seed, until n have
// committed. A failed transaction is an application-level retry.
type commits struct {
	seed                int64
	id, n, words, width int
}

func (c commits) Len() int { return c.n }

func (c commits) Run(apply func(registry.Op) registry.Result) {
	rng := sched.ProcRand(c.seed, c.id)
	idx := make([]int, 0, c.width)
	for done := 0; done < c.n; {
		for idx = idx[:0]; len(idx) < c.width; {
			if i := rng.Intn(c.words); !slices.Contains(idx, i) {
				idx = append(idx, i)
			}
		}
		if apply(registry.Op{Code: registry.OpMWCAS, Words: idx, Delta: 1}).OK {
			done++
		}
	}
}

// RunMWCAS executes one MWCAS throughput run.
func RunMWCAS(cfg MWCASConfig) (*MWCASResult, error) {
	lay := layout{procs: cfg.Processors, bursts: cfg.BurstsPerCPU, burst: cfg.BurstCommits, total: cfg.TotalCommits}
	if err := lay.check("commits"); err != nil {
		return nil, err
	}
	name, ok := mwcasObject[cfg.Kind]
	if !ok {
		return nil, fmt.Errorf("workload: unknown MWCAS kind %q", cfg.Kind)
	}
	if cfg.Kind == MWCASUni && cfg.Processors != 1 {
		return nil, fmt.Errorf("workload: %s requires one processor", cfg.Kind)
	}
	if cfg.Width < 1 || cfg.Width > cfg.Words {
		return nil, fmt.Errorf("workload: width %d out of range [1,%d]", cfg.Width, cfg.Words)
	}
	if cfg.Granularity == 0 {
		cfg.Granularity = sched.Coarse
	}
	pol, err := resolvePolicy(cfg.Policy)
	if err != nil {
		return nil, err
	}

	s := sched.New(sched.Config{
		Processors:  cfg.Processors,
		Seed:        cfg.Seed,
		MemWords:    1 << 16,
		Granularity: cfg.Granularity,
		MaxSteps:    uint64(cfg.TotalCommits)*uint64(cfg.Words+64)*64 + 1<<22,
		Policy:      pol,
	})
	inst, err := registry.Build(s, name, registry.Config{
		Procs: lay.slots(), Words: cfg.Words, Width: cfg.Width, CC: cfg.CC, Mode: cfg.Mode,
	})
	if err != nil {
		return nil, fmt.Errorf("workload: %w", err)
	}
	est := int64(cfg.TotalCommits * (16 + 4*cfg.Width))
	lay.cast(s.Rand(), est, func(id, n int) registry.Script {
		return commits{seed: cfg.Seed, id: id, n: n, words: cfg.Words, width: cfg.Width}
	}).Spawn(s, inst)
	if err := s.Run(); err != nil {
		return nil, err
	}
	applies := s.Report(string(cfg.Kind)).OpTime
	res := &MWCASResult{Cfg: cfg, Commits: cfg.TotalCommits, Failures: applies.Count - cfg.TotalCommits,
		Makespan: s.Elapsed(), WorstOp: applies.Max}

	// Conservation check: every committed transaction incremented Width
	// words by one, so the word sum equals Commits * Width.
	var sum uint64
	for _, v := range inst.Snapshot() {
		sum += v
	}
	if sum != uint64(res.Commits*cfg.Width) {
		return nil, errors.New("workload: MWCAS conservation violated (lost or doubled commits)")
	}
	return res, nil
}
