package omp

import (
	"testing"

	"repro/internal/core"
	"repro/internal/machine"
)

// BenchmarkTeamBarrier runs b.N back-to-back team barriers in one parallel
// region on a 4-CMP single-mode runtime and reports the host cost and the
// coroutine handoffs per barrier. Runtime setup is outside the timer, so
// allocs/op is the steady-state cost of a barrier.
func BenchmarkTeamBarrier(b *testing.B) {
	b.ReportAllocs()
	p := machine.DefaultParams()
	p.Nodes = 4
	rt, err := New(Config{Machine: p, Mode: core.ModeSingle})
	if err != nil {
		b.Fatal(err)
	}
	n := b.N
	b.ResetTimer()
	err = rt.Run(func(m *Thread) {
		m.Parallel(func(th *Thread) {
			for i := 0; i < n; i++ {
				th.Barrier()
			}
		})
	})
	b.StopTimer()
	if err != nil {
		b.Fatal(err)
	}
	b.ReportMetric(float64(b.Elapsed().Nanoseconds())/float64(n), "ns/barrier")
	b.ReportMetric(float64(rt.M.Eng.Handoffs())/float64(n), "handoffs/barrier")
}
