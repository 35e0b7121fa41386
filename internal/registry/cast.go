package registry

import (
	"repro/internal/arrival"
	"repro/internal/sched"
)

// Job is one process of a Cast: where and at what priority it runs, which
// algorithm slot it operates as, when it is released, and what it does.
type Job struct {
	Name    string
	CPU     int
	Prio    sched.Priority
	Slot    int
	Release arrival.Release
	// Script is the job's op script, applied in order as Slot.
	Script Script
	// Delay is compute-only time charged after the ops. A job with an
	// empty script and Delay > 0 is a burst that preempts without touching
	// the object; give it Slot -1.
	Delay int64
}

// Script is a job's op script. Run applies the ops in order through apply,
// which performs each one on the instance and returns its result, so a
// script may choose its next op from the last result (retry until commit)
// or draw its ops as it goes instead of holding them all. Len is the
// script's advance length estimate (the job's Cost).
type Script interface {
	Len() int
	Run(apply func(Op) Result)
}

// Ops is a fixed script: the ops in order.
type Ops []Op

// Len returns the op count.
func (o Ops) Len() int { return len(o) }

// Run applies every op in order.
func (o Ops) Run(apply func(Op) Result) {
	for _, op := range o {
		apply(op)
	}
}

// Cast is an ordered list of jobs: the data form of a scheduling scenario.
// The scenario, run-report, sweep, adversary and workload drivers all
// declare their runs as casts and spawn them through Spawn.
type Cast []Job

// Spawn spawns every job into s, in order, operating on inst, and returns
// the procs in cast order. Each op's response time is recorded
// (Env.RecordOp), so the run report's OpTime digests cover every cast run.
// A job's Cost estimate is its script's Len plus its Delay.
func (c Cast) Spawn(s *sched.Sim, inst Instance) []*sched.Proc {
	procs := make([]*sched.Proc, len(c))
	for i := range c {
		j := &c[i]
		slot, script, delay := j.Slot, j.Script, j.Delay
		procs[i] = s.Spawn(sched.JobSpec{
			Name: j.Name, CPU: j.CPU, Prio: j.Prio, Slot: slot,
			AfterSlices: j.Release.AfterSlices, At: j.Release.At,
			Cost: int64(script.Len()) + delay,
			Body: func(e *sched.Env) {
				script.Run(func(op Op) Result {
					start := e.Now()
					r := inst.Apply(e, slot, op)
					e.RecordOp(e.Now() - start)
					return r
				})
				if delay > 0 {
					e.Delay(delay)
				}
			},
		})
	}
	return procs
}

// Cast returns the descriptor family's shared scenario shape, one job per
// name: job i is names[i], runs scripts[i] as slot i, and is released at
// rel[i]. Uniprocessor objects get the Figure 2 trio on cpu0 at priorities
// 1/5/9 (a victim and two nested adversaries); multiprocessor objects get
// the two-CPU quartet: workers at priority 1 on cpu0/cpu1, then two
// priority-9 arrivals on cpu0/cpu1 that preempt them.
func (d *Descriptor) Cast(names []string, scripts [][]Op, rel []arrival.Release) Cast {
	cpu, prio := []int{0, 0, 0}, []sched.Priority{1, 5, 9}
	if d.Family != FamilyUni {
		cpu, prio = []int{0, 1, 0, 1}, []sched.Priority{1, 1, 9, 9}
	}
	c := make(Cast, len(names))
	for i := range c {
		c[i] = Job{Name: names[i], CPU: cpu[i], Prio: prio[i], Slot: i, Release: rel[i], Script: Ops(scripts[i])}
	}
	return c
}
