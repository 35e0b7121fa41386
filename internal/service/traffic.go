package service

import (
	"fmt"
	"math/rand"
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

// check rejects a normalized config the generator cannot serve for
// streams of up to n requests: a non-positive MaxDelta or WindowLen, or
// so many windows that Req.Window reaches its 1<<24 bound.
func (c TrafficConfig) check(n int) error {
	if c.MaxDelta < 1 || c.WindowLen < 1 {
		return fmt.Errorf("service: traffic MaxDelta %d and WindowLen %d must be positive", c.MaxDelta, c.WindowLen)
	}
	if (n-1)/c.WindowLen >= 1<<24 {
		return fmt.Errorf("service: %d requests at WindowLen %d pass the 1<<24 window bound", n, c.WindowLen)
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
