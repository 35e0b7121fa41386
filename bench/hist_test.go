package main

import (
	"math"
	"math/rand"
	"sort"
	"testing"
)

// TestHistQuantilesMatchExact checks every reported quantile against the
// exact sorted-sample value at the same rank: within 1% relative error on
// skewed latency-shaped data, and exact below 256.
func TestHistQuantilesMatchExact(t *testing.T) {
	rng := rand.New(rand.NewSource(1))
	for _, tc := range []struct {
		name string
		gen  func() int64
	}{
		{"small", func() int64 { return int64(rng.Intn(256)) }},
		{"lognormal", func() int64 { return int64(math.Exp(8 + 1.5*rng.NormFloat64())) }},
		{"bimodal", func() int64 {
			if rng.Intn(10) == 0 {
				return 50_000 + int64(rng.Intn(400_000))
			}
			return 1_500 + int64(rng.Intn(3_000))
		}},
	} {
		// Two per-goroutine histograms merged, as the native rounds use them.
		var a, b, merged hist
		samples := make([]int64, 20_000)
		for i := range samples {
			samples[i] = tc.gen()
			if i%2 == 0 {
				a.add(samples[i])
			} else {
				b.add(samples[i])
			}
		}
		merged.merge(&a)
		merged.merge(&b)
		sort.Slice(samples, func(i, j int) bool { return samples[i] < samples[j] })
		for _, q := range []float64{0, 0.01, 0.25, 0.5, 0.9, 0.99, 0.999, 1} {
			exact := float64(samples[int(q*float64(len(samples)-1))])
			got := merged.quantile(q)
			if math.Abs(got-exact) > 0.01*exact {
				t.Errorf("%s q=%v: got %v, exact %v", tc.name, q, got, exact)
			}
			if exact < 256 && got != exact {
				t.Errorf("%s q=%v: got %v, want exact %v below 256", tc.name, q, got, exact)
			}
		}
		if merged.count != uint64(len(samples)) || merged.min != samples[0] || merged.max != samples[len(samples)-1] {
			t.Errorf("%s: count/min/max %d/%d/%d, want %d/%d/%d", tc.name,
				merged.count, merged.min, merged.max, len(samples), samples[0], samples[len(samples)-1])
		}
	}
}

// TestHistBucketsTile checks that consecutive buckets tile the value range
// with no gap or overlap and a width at most 1/128 of the lower bound.
func TestHistBucketsTile(t *testing.T) {
	next := int64(0)
	for i := 0; i < histBuckets; i++ {
		lo, w := histBucket(i)
		if lo != next {
			t.Fatalf("bucket %d starts at %d, want %d", i, lo, next)
		}
		if lo >= 256 && w*128 > lo {
			t.Fatalf("bucket %d: width %d exceeds 1/128 of %d", i, w, lo)
		}
		if histIndex(lo) != i || histIndex(lo+w-1) != i {
			t.Fatalf("bucket %d: index(%d)=%d index(%d)=%d", i, lo, histIndex(lo), lo+w-1, histIndex(lo+w-1))
		}
		next = lo + w
	}
	if next != 1<<histMaxBits {
		t.Fatalf("buckets end at %d, want %d", next, int64(1)<<histMaxBits)
	}
}
