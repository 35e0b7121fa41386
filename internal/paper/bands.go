package paper

import (
	"fmt"
	"math"
)

// The bands read raw measured columns, never a printed ratio whose inputs
// are in the rows, so corrupting a measurement is caught even when its
// derived column is left alone.

// verdict collects a band's first failed check.
type verdict struct{ err error }

// within fails unless lo <= x <= hi.
func (v *verdict) within(what string, x, lo, hi float64) {
	if v.err == nil && (x < lo || x > hi) {
		v.err = fmt.Errorf("%s = %.3g, want within [%g, %g]", what, x, lo, hi)
	}
}

// atLeast fails unless lo <= x.
func (v *verdict) atLeast(what string, x, lo float64) { v.within(what, x, lo, math.Inf(1)) }

// less fails unless a < b.
func (v *verdict) less(what string, a, b float64) {
	if v.err == nil && !(a < b) {
		v.err = fmt.Errorf("%s: %g, want < %g", what, a, b)
	}
}

// doubling fails unless each value is 1.8-2.2 times its predecessor: a
// cost linear in a parameter that doubles from row to row.
func (v *verdict) doubling(what string, xs []float64) {
	for i := 1; i < len(xs); i++ {
		v.within(fmt.Sprintf("%s: growth %g -> %g", what, xs[i-1], xs[i]), xs[i]/xs[i-1], 1.8, 2.2)
	}
}

// linear3 fails unless a < b < c, measured at x, 2x and 4x, grow linearly:
// the second difference is 1.6-2.4 times the first.
func (v *verdict) linear3(what string, a, b, c float64) {
	v.less(what+" increasing", a, b)
	v.less(what+" increasing", b, c)
	v.within(fmt.Sprintf("%s difference ratio (%g, %g, %g)", what, a, b, c), (c-b)/(b-a), 1.6, 2.4)
}

func fig1Band(_ Scale, ts []Table) error {
	var v verdict
	const c = "worst-case time"
	mw := ts[0].col("multi MWCAS (CAS+CCAS)", c) // P=2,4,8 at W=8; W=4,16 at P=4
	ml := ts[0].col("multi list (CAS+CCAS)", c)  // P=2,4,8 at T=200; T=100,400 at P=4
	v.doubling("uni MWCAS vs W", ts[0].col("uni MWCAS (CAS)", c))
	v.doubling("uni list helped insert vs T", ts[0].col("uni list (CAS)", c))
	v.linear3("multi MWCAS vs P", mw[0], mw[1], mw[2])
	v.linear3("multi MWCAS vs W", mw[3], mw[1], mw[4])
	v.linear3("multi list vs P", ml[0], ml[1], ml[2])
	v.linear3("multi list vs T", ml[3], ml[1], ml[4])
	return v.err
}

func fig8Band(_ Scale, ts []Table) error {
	var v verdict
	steps := ts[0].col("", "vsteps per CCAS") // native, tagged, delayed
	v.within("native CCAS vsteps", steps[0], 1, 1)
	v.within("counter-tagged CCAS vsteps", steps[1], 2, 4)
	v.within("delay-based CCAS vsteps", steps[2], 2, 4)
	return v.err
}

func sec34Band(_ Scale, ts []Table) error {
	var v verdict
	wf, lf := ts[0].col("", "wait-free"), ts[0].col("", "lock-free [7]")
	for i, r := range ts[0].Rows {
		v.within("wait-free/lock-free total time at list size "+r.Label[0], wf[i]/lf[i], 1.5, 2.5)
	}
	return v.err
}

func retriesBand(sc Scale, ts []Table) error {
	var v verdict
	t := ts[0]
	lf, wf, ratio := t.col("", "lock-free worst retries"), t.col("", "wait-free retries"), t.col("", "wait-free worst/interference-free")
	for i, r := range t.Rows {
		at := " at list size " + r.Label[0]
		v.atLeast("lock-free worst retries"+at, lf[i], 10)
		v.within("wait-free retries"+at, wf[i], 0, 0)
		v.within("wait-free worst/interference-free"+at, ratio[i], 1, float64(2*sc.Procs))
	}
	return v.err
}

func valoisBand(_ Scale, ts []Table) error {
	var v verdict
	total := ts[0].col("", "total time") // CAS2 lock-free, Valois model, mark-bit
	v.atLeast("Valois-model CAS-only / CAS2 lock-free total time", total[1]/total[0], 2)
	v.less("mark-bit CAS-only total (no reclamation) vs CAS2 lock-free", total[2], total[0])
	return v.err
}

func ablationsBand(_ Scale, ts []Table) error {
	var v verdict
	wf, uc := ts[0].col("", "wait-free list"), ts[0].col("", "universal construction")
	v.less("A1 wait-free vs universal construction at N=4", wf[0], uc[0])
	for i := 1; i < len(wf); i++ {
		v.less("A1 UC/WF must grow with N: "+ts[0].Rows[i-1].Label[0]+" processes", uc[i-1]/wf[i-1], uc[i]/wf[i])
	}
	hi := ts[1].col("", "hi-priority op response") // cyclic, priority
	v.less("A2 priority-helping hi response vs cyclic", hi[1], hi[0])
	rounds := ts[2].col("", "total time") // two, one
	v.less("A3 one-round total vs two rounds", rounds[1], rounds[0])
	cyc, pri := ts[3].col("", "cyclic low response"), ts[3].col("", "priority low response")
	v.within("A6 cyclic low response spread (max/min) across bursts", max(cyc[0], cyc[1], cyc[2])/min(cyc[0], cyc[1], cyc[2]), 1, 1.1)
	v.less("A6 priority low response must grow with the stream", pri[0], pri[1])
	v.less("A6 priority low response must grow with the stream", pri[1], pri[2])
	v.less("A6 cyclic vs priority low response at the largest burst", cyc[2], pri[2])
	stride := ts[4].col("", "total time") // sync cost 1: k=1,10,100; sync cost 8: k=1,10,100
	v.less("A4 stride 1 vs 100 at sync cost 1", stride[0], stride[2])
	v.less("A4 stride 100 vs 1 at sync cost 8", stride[5], stride[3])
	return v.err
}

func extBand(_ Scale, ts []Table) error {
	var v verdict
	cost := ts[0].col("", "cost") // queue, stack, hash K=1,4,16
	v.within("hash search speedup K=1 -> K=4", cost[2]/cost[3], 2.5, 4)
	v.within("hash search speedup K=4 -> K=16", cost[3]/cost[4], 2.5, 4)
	period, wcet, resp := ts[1].col("", "period"), ts[1].col("", "WCET (2T ops)"), ts[1].col("", "response bound")
	for i, r := range ts[1].Rows {
		v.within("task "+r.Label[0]+" response bound", resp[i], wcet[i], period[i])
	}
	return v.err
}

func mwcasBand(_ Scale, ts []Table) error {
	var v verdict
	retries, worst := ts[0].col("", "conflict retries"), ts[0].col("", "worst op") // uni W=2,4; multi P=2 W=2, P=4 W=2, P=4 W=4
	v.within("uni W=2 conflict retries", retries[0], 0, 0)
	v.within("uni W=4 conflict retries", retries[1], 0, 0)
	v.within("uni worst op growth W=2 -> W=4", worst[1]/worst[0], 1.5, 2.5)
	v.less("multi conflict retries P=2 -> P=4", retries[2], retries[3])
	v.less("multi conflict retries W=2 -> W=4", retries[3], retries[4])
	return v.err
}
