package main

import (
	"sort"
	"sync/atomic"
)

// The reference host's speed drifts by 10-30% over minutes (it is a VM
// whose machine other tenants share), which would swamp a 10% regression
// bound. So every measured unit of work runs between two probes of a fixed
// kernel, and the wall-clock end-to-end metrics are scaled by the probe's
// slowdown over the unit: they read as if measured on the reference host.
// The kernels are the benchmark's own code, so a change to the program
// cannot move them.

// kernel selects a probe kernel. Each is the one whose slowdown best
// tracked that kind of work over a few hundred samples on the reference host.
type kernel int

const (
	// atomicKernel matches the native rounds: xorshift-driven atomic loads
	// and compare-and-swaps over a 256 KB table.
	atomicKernel kernel = iota
	// switchKernel matches the simulator, whose time goes into handing
	// control between goroutines: a token passed back and forth over
	// unbuffered channels.
	switchKernel
)

// nominalNs is one segment's duration on the reference host, a quiet 2-vCPU
// VM at 2.0 GHz.
var nominalNs = [...]float64{atomicKernel: 2.8e6, switchKernel: 3.0e6}

type host struct {
	table     [1 << 15]uint64
	kernel    kernel
	before    float64
	slowdowns []float64
}

func (h *host) segment(k kernel) {
	if k == atomicKernel {
		x := uint64(88172645463325252)
		for i := 0; i < 400_000; i++ {
			x ^= x << 13
			x ^= x >> 7
			x ^= x << 17
			w := &h.table[x>>20&(1<<15-1)]
			v := atomic.LoadUint64(w)
			atomic.CompareAndSwapUint64(w, v, v+1)
		}
		return
	}
	ping, pong := make(chan struct{}), make(chan struct{})
	go func() {
		for range ping {
			pong <- struct{}{}
		}
		close(pong)
	}()
	for i := 0; i < 8_000; i++ {
		ping <- struct{}{}
		<-pong
	}
	close(ping)
	<-pong
}

// probe times five segments of kernel k and returns the median, so one
// segment that loses the CPU does not skew the factor.
func (h *host) probe(k kernel) float64 {
	var seg [5]float64
	for i := range seg {
		t0 := now()
		h.segment(k)
		seg[i] = float64(now() - t0)
	}
	sort.Float64s(seg[:])
	return seg[len(seg)/2]
}

// begin probes the host with kernel k before a measured unit of work.
func (h *host) begin(k kernel) {
	h.kernel = k
	h.before = h.probe(k)
}

// end probes again after the unit and returns the host's slowdown over it:
// 1 at the reference speed, 1.2 when the probes ran 20% slower. Rates are
// multiplied by it and latencies divided.
func (h *host) end() float64 {
	s := (h.before + h.probe(h.kernel)) / 2 / nominalNs[h.kernel]
	h.slowdowns = append(h.slowdowns, s)
	return s
}
