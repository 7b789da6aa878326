package main

import (
	"fmt"
	"os"
	"path/filepath"
	"time"

	"repro/internal/core"
	"repro/internal/machine"
	"repro/internal/omp"
	"repro/internal/shmem"
	"repro/internal/sim"
	"repro/internal/store"
)

// probeLayers runs fixed micro-programs through each simulator layer's
// public API and the journal, and records each unit cost into r. Every
// probe repeats three times and keeps the median.
func probeLayers(e env, r *result) error {
	probes := []struct {
		name string
		fn   func() (float64, error)
	}{
		{"sim.ns_per_event", probeEvents},
		{"sim.ns_per_handoff", probeHandoffs},
		{"machine.ns_per_l1_hit", probeL1Hit},
		{"machine.ns_per_l2_hit", probeL2Hit},
		{"machine.ns_per_remote_miss", probeRemoteMiss},
		{"omp.ns_per_barrier", probeBarrier},
		{"omp.ns_per_dyn_chunk", probeDynChunk},
		{"omp.ns_per_task", probeTask},
		{"store.append_fsync_ms", func() (float64, error) { return probeFsync(e) }},
	}
	for _, p := range probes {
		var vals []float64
		for i := 0; i < 3; i++ {
			v, err := p.fn()
			if err != nil {
				return fmt.Errorf("probe %s: %w", p.name, err)
			}
			vals = append(vals, v)
		}
		r.metrics[p.name] = median(vals)
	}
	return nil
}

func perOp(d time.Duration, n int) float64 { return float64(d.Nanoseconds()) / float64(n) }

// probeEvents chains Engine.At callbacks: no context switch is involved.
func probeEvents() (float64, error) {
	const n = 400_000
	eng := sim.NewEngine()
	count := 0
	var step func()
	step = func() {
		count++
		if count < n {
			eng.At(eng.Now()+1, step)
		}
	}
	eng.At(0, step)
	t := time.Now()
	err := eng.Run()
	return perOp(time.Since(t), n), err
}

// probeHandoffs alternates two contexts with Advance(1); every Advance
// parks its context and hands the engine to the other one.
func probeHandoffs() (float64, error) {
	const n = 100_000
	eng := sim.NewEngine()
	for c := 0; c < 2; c++ {
		eng.Spawn(fmt.Sprintf("h%d", c), 0, func(ctx *sim.Context) {
			for i := 0; i < n; i++ {
				ctx.Advance(1)
			}
		})
	}
	t := time.Now()
	err := eng.Run()
	return perOp(time.Since(t), 2*n), err
}

// machineProbe runs body on processor 0 of a 2-CMP machine and returns
// the host time body reports for its measured part.
func machineProbe(body func(m *machine.Machine, p *machine.Proc) (time.Duration, int, error)) (float64, error) {
	params := machine.DefaultParams()
	params.Nodes = 2
	m := machine.New(params)
	var (
		d     time.Duration
		n     int
		inner error
	)
	m.Start(0, func(p *machine.Proc) { d, n, inner = body(m, p) })
	if err := m.Run(); err != nil {
		return 0, err
	}
	if inner != nil {
		return 0, inner
	}
	return perOp(d, n), nil
}

// probeL1Hit loads one warm line over and over.
func probeL1Hit() (float64, error) {
	return machineProbe(func(m *machine.Machine, p *machine.Proc) (time.Duration, int, error) {
		const n = 200_000
		a := m.Space.Alloc(m.P.LineBytes, m.P.LineBytes)
		p.Load(a)
		hits := p.L1.Hits
		t := time.Now()
		for i := 0; i < n; i++ {
			p.Load(a)
		}
		d := time.Since(t)
		if p.L1.Hits-hits != n {
			return 0, 0, fmt.Errorf("%d of %d loads hit L1", p.L1.Hits-hits, n)
		}
		return d, n, nil
	})
}

// probeL2Hit cycles through a working set four times the L1 and a
// sixteenth of the L2, so every load misses L1 and hits L2.
func probeL2Hit() (float64, error) {
	return machineProbe(func(m *machine.Machine, p *machine.Proc) (time.Duration, int, error) {
		lines := 4 * m.P.L1Bytes / m.P.LineBytes
		base := m.Space.Alloc(lines*m.P.LineBytes, m.P.LineBytes)
		pass := func() {
			for i := 0; i < lines; i++ {
				p.Load(base + shmem.Addr(i*m.P.LineBytes))
			}
		}
		pass()
		const passes = 100
		hits := p.Node.L2.Hits
		t := time.Now()
		for k := 0; k < passes; k++ {
			pass()
		}
		d := time.Since(t)
		if got := p.Node.L2.Hits - hits; got != uint64(passes*lines) {
			return 0, 0, fmt.Errorf("%d of %d loads hit L2", got, passes*lines)
		}
		return d, passes * lines, nil
	})
}

// probeRemoteMiss streams over lines homed on the other CMP through a
// region twice the L2, so every load of the second pass is a remote miss.
func probeRemoteMiss() (float64, error) {
	return machineProbe(func(m *machine.Machine, p *machine.Proc) (time.Duration, int, error) {
		lines := 2 * m.P.L2Bytes / m.P.LineBytes
		base := m.Space.Alloc(2*lines*m.P.LineBytes, m.P.LineBytes)
		pass := func() {
			for i := 0; i < 2*lines; i++ {
				a := base + shmem.Addr(i*m.P.LineBytes)
				if m.Dir.Home(m.LineOf(a)) != p.Node.ID {
					p.Load(a)
				}
			}
		}
		pass()
		remote := p.Remote
		t := time.Now()
		pass()
		d := time.Since(t)
		got := int(p.Remote - remote)
		if got < lines*99/100 {
			return 0, 0, fmt.Errorf("only %d of %d loads were remote misses", got, lines)
		}
		return d, got, nil
	})
}

// ompProbe runs program on a 4-CMP single-mode runtime and returns the
// host time of Runtime.Run per operation.
func ompProbe(ops int, program func(*omp.Thread)) (float64, error) {
	params := machine.DefaultParams()
	params.Nodes = 4
	rt, err := omp.New(omp.Config{Machine: params, Mode: core.ModeSingle})
	if err != nil {
		return 0, err
	}
	t := time.Now()
	if err := rt.Run(program); err != nil {
		return 0, err
	}
	return perOp(time.Since(t), ops), nil
}

func probeBarrier() (float64, error) {
	const n = 2000
	return ompProbe(n, func(m *omp.Thread) {
		m.Parallel(func(th *omp.Thread) {
			for i := 0; i < n; i++ {
				th.Barrier()
			}
		})
	})
}

func probeDynChunk() (float64, error) {
	const n = 20_000
	return ompProbe(n, func(m *omp.Thread) {
		m.Parallel(func(th *omp.Thread) {
			th.ForSched(omp.Dynamic, 1, 0, n, false, func(int) {})
		})
	})
}

func probeTask() (float64, error) {
	const n = 5000
	return ompProbe(n, func(m *omp.Thread) {
		m.Parallel(func(th *omp.Thread) {
			th.Master(func() {
				for i := 0; i < n; i++ {
					th.Task(func(c *omp.Thread) { c.Compute(1) })
				}
			})
			th.TaskBarrier()
		})
	})
}

// probeFsync times Journal.Append with sync in a scratch journal and
// returns the median in milliseconds.
func probeFsync(e env) (float64, error) {
	dir, err := os.MkdirTemp(e.build, "journal-probe-")
	if err != nil {
		return 0, err
	}
	defer os.RemoveAll(dir)
	j, _, err := store.Open(filepath.Join(dir, "journal"), 0)
	if err != nil {
		return 0, err
	}
	var vals []float64
	for i := 0; i < 20; i++ {
		rec := store.Record{Job: fmt.Sprintf("probe-%d", i), Key: fmt.Sprintf("%064x", i), State: "done"}
		t := time.Now()
		if err := j.Append(rec, true); err != nil {
			j.Close()
			return 0, err
		}
		vals = append(vals, ms(time.Since(t)))
	}
	if err := j.Close(); err != nil {
		return 0, err
	}
	return median(vals), nil
}
