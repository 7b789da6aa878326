package omp

import (
	"testing"

	"repro/internal/core"
	"repro/internal/machine"
)

// staticRunAllocs measures the allocations of one complete runtime run: a
// parallel region executing a static worksharing loop of iters iterations
// over shared data, including the implied and region-end barriers.
func staticRunAllocs(t *testing.T, iters int) float64 {
	t.Helper()
	p := machine.DefaultParams()
	p.Nodes = 2
	return testing.AllocsPerRun(5, func() {
		rt, err := New(Config{Machine: p, Mode: core.ModeSingle})
		if err != nil {
			t.Fatal(err)
		}
		data := rt.NewF64(64)
		err = rt.Run(func(m *Thread) {
			m.Parallel(func(th *Thread) {
				th.For(0, iters, func(i int) {
					th.LdF(data, i%64)
					th.StF(data, i%64, float64(i))
				})
			})
		})
		if err != nil {
			t.Fatal(err)
		}
	})
}

// taskRunAllocs measures the allocations of one run that spawns n
// single-iteration taskloop chunks from the master and drains them at a
// task barrier — exercising the push (spawn), pop (owner drain), and
// steal (second thread) hot paths of the task deques.
func taskRunAllocs(t *testing.T, n int) float64 {
	t.Helper()
	p := machine.DefaultParams()
	p.Nodes = 2
	return testing.AllocsPerRun(5, func() {
		rt, err := New(Config{Machine: p, Mode: core.ModeSingle})
		if err != nil {
			t.Fatal(err)
		}
		data := rt.NewF64(64)
		body := func(c *Thread, clo, chi int) {
			for i := clo; i < chi; i++ {
				c.LdF(data, i%64)
			}
		}
		err = rt.Run(func(m *Thread) {
			m.Parallel(func(th *Thread) {
				th.Master(func() { th.TaskloopChunked(1, 0, n, body) })
				th.TaskBarrier()
			})
		})
		if err != nil {
			t.Fatal(err)
		}
	})
}

// Task push/pop/steal must not allocate per task: the record table, rings,
// and scheduler cells are preallocated at first use, and taskloop chunks
// share one closure. Only the constant setup cost may differ between a
// 100-task and a 6100-task run.
func TestTaskSchedulingAllocFree(t *testing.T) {
	small := taskRunAllocs(t, 100)
	large := taskRunAllocs(t, 6100)
	slope := (large - small) / 6000
	if slope > 0.01 {
		t.Fatalf("task scheduling allocates: %.0f allocs at 100 tasks, %.0f at 6100 (%.4f allocs/task)",
			small, large, slope)
	}
}

// A static-schedule iteration (loads, stores, spin polls, barriers) must
// not allocate per iteration: runtime construction dominates and the cost
// may not scale with the iteration count. A per-iteration allocation
// regression in the runtime, machine, or sim layers fails this test
// directly, independent of the bench ratchet.
func TestStaticScheduleIterationAllocFree(t *testing.T) {
	small := staticRunAllocs(t, 100)
	large := staticRunAllocs(t, 10100)
	slope := (large - small) / 10000
	if slope > 0.01 {
		t.Fatalf("static-sched iteration allocates: %.0f allocs at 100 iters, %.0f at 10100 (%.4f allocs/iter)",
			small, large, slope)
	}
}
