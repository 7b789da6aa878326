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

// slipRunAllocs measures one slipstream run of a parallel region with n
// critical sections, n barriers and a dynamically scheduled loop of n
// chunks: the spins of the runtime and the slipstream controller (job
// flag, region pickup, team barrier, A-stream tokens, lock, and the
// scheduling-decision handoff in both directions) scale with n.
func slipRunAllocs(t *testing.T, n int) float64 {
	t.Helper()
	p := machine.DefaultParams()
	p.Nodes = 2
	return testing.AllocsPerRun(5, func() {
		rt, err := New(Config{Machine: p, Mode: core.ModeSlipstream, Slipstream: core.L1})
		if err != nil {
			t.Fatal(err)
		}
		sum := rt.NewF64(1)
		err = rt.Run(func(m *Thread) {
			m.Parallel(func(th *Thread) {
				add := func() { th.StF(sum, 0, th.LdF(sum, 0)+1) }
				for i := 0; i < n; i++ {
					th.Critical(add)
					th.Barrier()
				}
				th.ForSched(Dynamic, 1, 0, n, false, func(int) { th.Compute(50) })
			})
		})
		if err != nil {
			t.Fatal(err)
		}
	})
}

// Spin waits allocate nothing per wait: their conditions live in the
// thread and controller state they read, not in a closure per spin.
func TestSpinWaitsAllocFree(t *testing.T) {
	small := slipRunAllocs(t, 10)
	large := slipRunAllocs(t, 1010)
	if slope := (large - small) / 1000; slope > 0.01 {
		t.Fatalf("spin waits allocate: %.0f allocs at n=10, %.0f at n=1010 (%.4f allocs per n)",
			small, large, slope)
	}
}
