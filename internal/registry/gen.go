package registry

import (
	"math/rand"
)

// genKeyRange is the op generator's key universe. It is deliberately small
// so generated schedules collide: same-key insert/delete races are where
// the helping proofs earn their keep.
const genKeyRange = 16

// Ops returns the object's canonical deterministic operation stream for
// one process slot: n operations drawn from the object's model kind, fully
// determined by (seed, slot). Identical (seed, slot, n) triples yield
// identical streams across objects sharing a model kind — the differential
// tests run one stream against both members of a uni/multi pair.
func (d *Descriptor) Ops(cfg Config, seed int64, slot, n int) []Op {
	rng := rand.New(rand.NewSource(seed*1000003 + int64(slot)*7919 + int64(d.Model)))
	out := make([]Op, n)
	for i := range out {
		out[i] = genOne(d.Model, cfg, rng, slot, i)
	}
	return out
}

func genOne(kind ModelKind, cfg Config, rng *rand.Rand, slot, i int) Op {
	switch kind {
	case ModelSorted:
		key := uint64(1 + rng.Intn(genKeyRange))
		switch rng.Intn(5) {
		case 0:
			return Op{Code: OpSearch, Key: key}
		case 1, 2:
			return Op{Code: OpDelete, Key: key}
		default:
			return Op{Code: OpInsert, Key: key, Val: key*10 + uint64(slot)}
		}
	case ModelFIFO:
		if rng.Intn(2) == 0 {
			return Op{Code: OpDequeue}
		}
		return Op{Code: OpEnqueue, Val: uint64(1000*(slot+1) + i + 1)}
	case ModelLIFO:
		if rng.Intn(2) == 0 {
			return Op{Code: OpPop}
		}
		return Op{Code: OpPush, Val: uint64(1000*(slot+1) + i + 1)}
	case ModelWords:
		words := appWords(cfg)
		width := cfg.Width
		if width > words {
			width = words
		}
		if width < 1 {
			width = 1
		}
		k := 1 + rng.Intn(width)
		idx := rng.Perm(words)[:k]
		// Sorted indices keep the schedule independent of Perm's
		// internal order and give MWCAS a canonical address order.
		sortInts(idx)
		return Op{Code: OpMWCAS, Words: idx, Delta: uint64(1 + rng.Intn(5))}
	}
	panic("registry: op generation for unknown model kind")
}

// appWords is the number of application words a ModelWords object built
// with cfg holds: cfg.Words, or one word when it is unset (Normalize applies
// the same default, so generated indices always fit the built instance).
func appWords(cfg Config) int {
	if cfg.Words < 1 {
		return 1
	}
	return cfg.Words
}

// wordsInRange reports whether every index of an OpMWCAS is a valid word of
// an n-word instance; Apply rejects other transactions (OK=false) instead of
// indexing out of range.
func wordsInRange(idx []int, n int) bool {
	if len(idx) == 0 {
		return false
	}
	for _, i := range idx {
		if i < 0 || i >= n {
			return false
		}
	}
	return true
}

func sortInts(a []int) {
	for i := 1; i < len(a); i++ {
		for j := i; j > 0 && a[j] < a[j-1]; j-- {
			a[j], a[j-1] = a[j-1], a[j]
		}
	}
}
