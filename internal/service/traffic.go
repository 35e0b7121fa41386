package service

import (
	"fmt"
	"math/rand"

	"repro/internal/prim"
)

// The keyed traffic generator. Requests are a pure function of
// (seed, slot): each slot's stream comes from its own rand.Rand seeded by
// mixing the run seed with the slot index, so streams are independent,
// reproducible, and insensitive to how many other slots exist — the same
// stream drives the simulator and the native backend, and both service
// objects (counters read Key/Delta, limiters read Tenant/Window).
//
// Keys follow a Zipfian hot-key distribution (the serving-workload
// shape: a handful of keys take most of the traffic) and tenants a
// fixed-skew Zipfian mix (one big tenant, a long tail). Windows advance
// with the request's position in its stream — request i belongs to
// window i/WindowLen — so every slot agrees on window boundaries without
// a clock.

// TrafficConfig shapes the generated request stream.
type TrafficConfig struct {
	// Keys is the counter key-space size (default 64).
	Keys int
	// Tenants is the limiter tenant count (default 4).
	Tenants int
	// Zipf is the hot-key skew exponent s. Values > 1 give a Zipfian
	// distribution (rand.NewZipf's domain); anything <= 1 selects keys
	// uniformly. Default 1.2.
	Zipf float64
	// WindowLen is how many requests of one stream share a limiter
	// refill window (default 64).
	WindowLen int
	// MaxDelta bounds counter increments: Delta is uniform in
	// [1, MaxDelta] (default 4).
	MaxDelta int
}

// Normalized returns the config with defaults filled in.
func (c TrafficConfig) Normalized() TrafficConfig {
	if c.Keys == 0 {
		c.Keys = 64
	}
	if c.Tenants == 0 {
		c.Tenants = 4
	}
	if c.Zipf == 0 {
		c.Zipf = 1.2
	}
	if c.WindowLen == 0 {
		c.WindowLen = 64
	}
	if c.MaxDelta == 0 {
		c.MaxDelta = 4
	}
	return c
}

// counterMax is the largest counter total every store holds: the tagged
// CCAS, which the wait-free stores use off the simulator, keeps 48
// logical bits.
var counterMax = prim.Tagged().MaxLogical()

// check rejects a normalized config the generator cannot serve for kind
// k, in streams of at most longest requests and total requests in all:
// a non-positive MaxDelta or WindowLen; for a limiter, so many windows
// that Req.Window reaches its 1<<16 bound; for a counter, a MaxDelta
// whose total over every request could pass counterMax on one key.
func (c TrafficConfig) check(k Kind, longest, total int) error {
	if c.MaxDelta < 1 || c.WindowLen < 1 {
		return fmt.Errorf("service: traffic MaxDelta %d and WindowLen %d must be positive", c.MaxDelta, c.WindowLen)
	}
	if k == Limiter && (longest-1)/c.WindowLen >= 1<<16 {
		return fmt.Errorf("service: %d requests at WindowLen %d pass the limiter's 1<<16 window bound", longest, c.WindowLen)
	}
	if k == Counter && uint64(c.MaxDelta) > counterMax/uint64(total) {
		return fmt.Errorf("service: %d requests of up to %d each could pass the counter bound %#x", total, c.MaxDelta, counterMax)
	}
	return nil
}

// tenantSkew is the fixed Zipf exponent of the multi-tenant mix.
const tenantSkew = 1.5

// Requests generates slot's first n requests under seed.
func (c TrafficConfig) Requests(seed int64, slot, n int) []Req {
	c = c.Normalized()
	rng := rand.New(rand.NewSource(seed*1_000_003 + int64(slot)*7_919 + 1))
	var keyZ *rand.Zipf
	if c.Zipf > 1 && c.Keys > 1 {
		keyZ = rand.NewZipf(rng, c.Zipf, 1, uint64(c.Keys-1))
	}
	var tenZ *rand.Zipf
	if c.Tenants > 1 {
		tenZ = rand.NewZipf(rng, tenantSkew, 1, uint64(c.Tenants-1))
	}
	out := make([]Req, n)
	for i := range out {
		var r Req
		if keyZ != nil {
			r.Key = int(keyZ.Uint64())
		} else if c.Keys > 1 {
			r.Key = rng.Intn(c.Keys)
		}
		if tenZ != nil {
			r.Tenant = int(tenZ.Uint64())
		}
		r.Window = uint64(i / c.WindowLen)
		r.Delta = 1 + uint64(rng.Intn(c.MaxDelta))
		out[i] = r
	}
	return out
}
