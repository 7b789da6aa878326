package machine

import (
	"testing"

	"repro/internal/shmem"
)

// loadStoreAllocs measures the allocations of one full simulation whose
// single context performs the given number of Load/Store round-trips over a
// small working set.
func loadStoreAllocs(t *testing.T, accesses int) float64 {
	t.Helper()
	return testing.AllocsPerRun(5, func() {
		p := DefaultParams()
		p.Nodes = 2
		p.TrackClass = false
		m := New(p)
		arr := shmem.NewI64(m.Space, 64, p.LineBytes)
		m.Start(0, func(pr *Proc) {
			for i := 0; i < accesses; i++ {
				pr.Load(arr.Addr(i % 64))
				pr.Store(arr.Addr(i % 64))
			}
		})
		if err := m.Run(); err != nil {
			t.Fatal(err)
		}
	})
}

// The memory-access path (Load/Store through L1, L2, and the directory)
// must not allocate per access: total run allocations may not scale with
// the access count. This locks in the typed event heap, the closure-free
// category accounting, and the scratch-buffer sharer lists — a regression
// fails go test directly, not just the bench ratchet.
func TestLoadStoreRoundTripAllocFree(t *testing.T) {
	// One throwaway run warms lazy tables.
	loadStoreAllocs(t, 10)
	small := loadStoreAllocs(t, 100)
	large := loadStoreAllocs(t, 10100)
	slope := (large - small) / 10000
	if slope > 0.01 {
		t.Fatalf("Load/Store round-trip allocates: %.0f allocs at 100 accesses, %.0f at 10100 (%.4f allocs/access)",
			small, large, slope)
	}
}
