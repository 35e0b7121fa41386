package service

import "fmt"

// TenantWindow keys the limiter oracle: one admission budget per tenant
// per refill window.
type TenantWindow struct {
	Tenant int
	Window uint64
}

// Outcome is the request accounting both drivers report.
type Outcome struct {
	// Requests is the total requests issued; Applied the subset that
	// reached a decision (counter increment landed, limiter verdict
	// returned); Lost the subset dropped at the wait-free retry cap.
	Requests, Applied, Lost int
	// Admitted and Denied split the limiter verdicts (zero for counters).
	Admitted, Denied int
	// Retries is the total synchronization retries across all requests.
	Retries int
	// Steps is the run's total backend memory operations.
	Steps uint64
	// Totals is the store's quiescent aggregate (per-key sums or
	// per-tenant admitted counts).
	Totals []uint64
	// Admits counts admissions per (tenant, window) — the limiter
	// over-admission oracle checks it against Budget.
	Admits map[TenantWindow]int
}

// slotTally is one slot's outcome row. Each slot owns its row, so the
// same body code runs under both drivers; the rows merge after the run.
type slotTally struct {
	applied, admitted, denied, lost, retries int
	deltas                                   uint64
	admits                                   map[TenantWindow]int
}

func newSlotTally(n int) slotTally { return slotTally{admits: make(map[TenantWindow]int, n/4+1)} }

// add records one request's response.
func (t *slotTally) add(kind Kind, req Req, resp Resp) {
	t.retries += resp.Retries
	if !resp.Applied {
		t.lost++
		return
	}
	t.applied++
	switch {
	case kind == Counter:
		t.deltas += req.Delta
	case resp.Admitted:
		t.admitted++
		t.admits[TenantWindow{req.Tenant, req.Window}]++
	default:
		t.denied++
	}
}

// finish merges the slots' tallies into o, reads the store's quiescent
// totals and checks the conservation oracle: counter totals equal the
// sum of applied deltas; limiter totals equal the admitted count and no
// (tenant, window) exceeds the budget the store was built with.
func (o *Outcome) finish(st Store, tallies []slotTally) error {
	cfg := st.config()
	o.Admits = map[TenantWindow]int{}
	var deltas uint64
	for i := range tallies {
		t := &tallies[i]
		o.Applied += t.applied
		o.Admitted += t.admitted
		o.Denied += t.denied
		o.Lost += t.lost
		o.Retries += t.retries
		deltas += t.deltas
		for tw, n := range t.admits {
			o.Admits[tw] += n
		}
	}
	o.Totals = st.Totals()
	var total uint64
	for _, t := range o.Totals {
		total += t
	}
	switch cfg.Kind {
	case Counter:
		if total != deltas {
			return fmt.Errorf("service: counter conservation violated: totals %d != applied deltas %d", total, deltas)
		}
	case Limiter:
		for tw, n := range o.Admits {
			if n > cfg.Budget {
				return fmt.Errorf("service: over-admission: tenant %d window %d admitted %d > budget %d",
					tw.Tenant, tw.Window, n, cfg.Budget)
			}
		}
		if total != uint64(o.Admitted) {
			return fmt.Errorf("service: limiter totals %d != admitted %d", total, o.Admitted)
		}
	}
	return nil
}
