package service

import (
	"testing"

	"repro/internal/native"
	"repro/internal/registry"
)

// TestNativeApplyAllocFree pins every store, on both service kinds,
// allocation-free on the native hot path, so the variant comparisons in
// BENCH_service.json measure synchronization, not the allocator. The lock
// store's critical sections are bound once per slot at NewStore; the
// waitfree store rides the allocation-free software CCAS.
func TestNativeApplyAllocFree(t *testing.T) {
	if native.RaceEnabled {
		t.Skip("allocation counts are not meaningful under -race")
	}
	reqs := TrafficConfig{Keys: 16, Tenants: 4, WindowLen: 8}.Normalized().Requests(1, 0, 256)
	for _, kind := range Kinds() {
		for _, variant := range Variants() {
			t.Run(string(kind)+"/"+string(variant), func(t *testing.T) {
				w := native.NewWorld(native.NewMem(1<<16), 1)
				st, err := NewStore(registry.NativeBackend(w), StoreConfig{
					Kind: kind, Variant: variant, Keys: 16, Tenants: 4, Slots: 1,
				})
				if err != nil {
					t.Fatal(err)
				}
				p := w.NewProc(0, 0, 0)
				i := 0
				avg := testing.AllocsPerRun(len(reqs), func() {
					p.Begin()
					st.Apply(p, 0, reqs[i%len(reqs)])
					p.End()
					i++
				})
				if avg != 0 {
					t.Errorf("%.2f Go allocations per native Apply, want 0", avg)
				}
			})
		}
	}
}
