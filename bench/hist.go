package main

import "math/bits"

// hist is a log-linear latency histogram: values below 256 get exact
// buckets, and every power of two above that is split into 128 equal
// sub-buckets, so a bucket's width is at most 1/128 of its lower bound and
// the reported midpoint is within 0.4% of any sample in it. The layout is
// fixed (35 KB), so observing is one increment and merging is an array sum;
// each goroutine owns its own and they are merged after the join. The
// repository's log2 metrics.Hist cannot resolve a 10% change, which is why
// the benchmark carries its own.
type hist struct {
	count    uint64
	sum      int64
	min, max int64
	buckets  [histBuckets]uint64
}

const (
	histSubBits = 7
	// histMaxBits caps samples below 2^41 ns (about 36 minutes).
	histMaxBits = 41
	histBuckets = (histMaxBits-histSubBits)<<histSubBits + 1<<histSubBits
)

func histIndex(v int64) int {
	if v < 0 {
		v = 0
	}
	if v >= 1<<histMaxBits {
		v = 1<<histMaxBits - 1
	}
	shift := bits.Len64(uint64(v)) - (histSubBits + 1)
	if shift < 0 {
		shift = 0
	}
	return shift<<histSubBits + int(v>>uint(shift))
}

// histBucket returns bucket i's lower bound and width.
func histBucket(i int) (lo, width int64) {
	if i < 2<<histSubBits {
		return int64(i), 1
	}
	shift := i>>histSubBits - 1
	m := int64(i - shift<<histSubBits)
	return m << uint(shift), 1 << uint(shift)
}

func (h *hist) add(v int64) {
	if h.count == 0 || v < h.min {
		h.min = v
	}
	if v > h.max {
		h.max = v
	}
	h.count++
	h.sum += v
	h.buckets[histIndex(v)]++
}

func (h *hist) merge(o *hist) {
	if o.count == 0 {
		return
	}
	if h.count == 0 || o.min < h.min {
		h.min = o.min
	}
	if o.max > h.max {
		h.max = o.max
	}
	h.count += o.count
	h.sum += o.sum
	for i, b := range o.buckets {
		h.buckets[i] += b
	}
}

func (h *hist) reset() { *h = hist{} }

// quantile returns the q-quantile (0 <= q <= 1) at the rank floor(q·(n-1))
// of the sorted samples, as the midpoint of the bucket holding that rank,
// clamped to the observed range. An empty histogram returns 0.
func (h *hist) quantile(q float64) float64 {
	if h.count == 0 {
		return 0
	}
	rank := uint64(q * float64(h.count-1))
	var cum uint64
	for i, b := range h.buckets {
		cum += b
		if cum > rank {
			lo, w := histBucket(i)
			mid := float64(lo) + float64(w-1)/2
			return min(max(mid, float64(h.min)), float64(h.max))
		}
	}
	return float64(h.max)
}

func (h *hist) mean() float64 {
	if h.count == 0 {
		return 0
	}
	return float64(h.sum) / float64(h.count)
}
