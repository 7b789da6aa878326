package machine

import (
	"fmt"
	"testing"

	"repro/internal/shmem"
	"repro/internal/stats"
)

// spinOutcome is everything a spin can change that a run reports.
type spinOutcome struct {
	bd                     [4]stats.Breakdown
	loads, stores          [4]uint64
	l1Hits, l1Misses       [4]uint64
	l2Hits, l2Misses       [2]uint64
	wall                   uint64
	class                  stats.Class
	proto                  ProtoStats
	events, handoffs       uint64
	trace                  string
	valueSeen, tokensTaken int64
}

// flagCond holds once *v >= want.
type flagCond struct {
	v    *int64
	want int64
}

func (c *flagCond) Done() bool { return *c.v >= c.want }

// tokenCond takes one of the pair register's tokens when one is there,
// the way the slipstream A-stream does: the update happens inside Done.
type tokenCond struct{ r *PairRegs }

func (c tokenCond) Done() bool {
	if c.r.ABarriers < c.r.RBarriers {
		c.r.ABarriers++
		return true
	}
	return false
}

// spinMachine runs a 2-CMP program in which a writer on CMP 1 flips a
// shared flag and posts pair-register tokens three times, while CMP 0's
// slipstream pair waits for each step (the R-stream spinning on the flag
// with loads, the A-stream on the registers) and both then read a block of
// data so the A-stream's fills are classified; CMP 1's second processor
// spins on the flag with a different poll interval. With useSpin the waits
// are SpinLoad/SpinWait; otherwise the loops those helpers stand for.
func spinMachine(useSpin bool) spinOutcome {
	p := DefaultParams()
	p.Nodes = 2
	p.TrackClass = true
	p.TraceCap = 4096
	m := New(p)
	r, a := m.Procs[0], m.Procs[1]
	r.Role, a.Role = stats.RoleR, stats.RoleA
	r.Pair, a.Pair = a, r
	regs := &m.Nodes[0].Regs

	flag := m.Space.Alloc(p.LineBytes, p.LineBytes)
	data := m.Space.Alloc(64*p.LineBytes, p.LineBytes)
	var value int64
	line := func(i int) shmem.Addr { return data + shmem.Addr(i*p.LineBytes) }

	spinLoad := func(pr *Proc, poll uint64, want int64) {
		if useSpin {
			pr.SpinLoad(flag, poll, &flagCond{v: &value, want: want})
			return
		}
		for {
			pr.Load(flag)
			if value >= want {
				break
			}
			pr.Wait(poll)
		}
	}
	takeToken := func(pr *Proc) {
		cond := tokenCond{r: regs}
		if useSpin {
			pr.SpinWait(p.RegAccessCycles, p.SpinPollCycles, cond)
			return
		}
		for {
			pr.Wait(p.RegAccessCycles)
			if cond.Done() {
				break
			}
			pr.Wait(p.SpinPollCycles)
		}
	}

	m.Start(2, func(w *Proc) {
		for k := int64(1); k <= 3; k++ {
			w.Compute(uint64(300 + 170*k))
			w.Store(flag)
			value = k
			regs.RBarriers++
		}
	})
	m.Start(0, func(pr *Proc) {
		old := pr.SetCategory(stats.CatBarrier)
		for k := int64(1); k <= 3; k++ {
			spinLoad(pr, p.SpinPollCycles, k)
			for i := 0; i < 16; i++ {
				pr.Load(line(int(k-1)*16 + i))
			}
		}
		pr.SetCategory(old)
	})
	m.Start(1, func(pr *Proc) {
		old := pr.SetCategory(stats.CatSched)
		for k := 1; k <= 3; k++ {
			takeToken(pr)
			for i := 0; i < 16; i++ {
				pr.Load(line((k-1)*16 + i))
			}
		}
		pr.SetCategory(old)
	})
	m.Start(3, func(pr *Proc) {
		spinLoad(pr, 7, 3)
	})
	if err := m.Run(); err != nil {
		panic(err)
	}

	var o spinOutcome
	for i, pr := range m.Procs {
		o.bd[i], o.loads[i], o.stores[i] = pr.Bd, pr.Loads, pr.Stores
		o.l1Hits[i], o.l1Misses[i] = pr.L1.Hits, pr.L1.Misses
	}
	for i, nd := range m.Nodes {
		o.l2Hits[i], o.l2Misses[i] = nd.L2.Hits, nd.L2.Misses
	}
	o.wall, o.class, o.proto = m.WallTime(), m.Class, m.Proto
	o.events, o.handoffs = m.Eng.Events(), m.Eng.Handoffs()
	o.trace = fmt.Sprint(m.Trace.Events())
	o.valueSeen, o.tokensTaken = value, regs.ABarriers
	return o
}

// SpinLoad and SpinWait are exact replacements for the loops they stand
// for: identical breakdowns, access counts, cache hit counts, trace,
// protocol counters, wall time and classification, with fewer coroutine
// handoffs for the same events.
func TestSpinHelpersMatchOpenCodedLoops(t *testing.T) {
	loop, spin := spinMachine(false), spinMachine(true)
	if loop.tokensTaken != 3 || loop.class.KindTotal(stats.ReqRead) == 0 {
		t.Fatalf("scenario did not exercise the waits: tokens=%d classified reads=%d",
			loop.tokensTaken, loop.class.KindTotal(stats.ReqRead))
	}
	if loop.handoffs <= spin.handoffs {
		t.Errorf("handoffs %d with the helpers, want fewer than the loops' %d", spin.handoffs, loop.handoffs)
	}
	loop.handoffs, spin.handoffs = 0, 0
	if spin != loop {
		t.Fatalf("helpers diverge from the open-coded loops:\n loop %+v\n spin %+v", loop, spin)
	}
}
