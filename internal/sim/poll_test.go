package sim

import (
	"fmt"
	"testing"
)

// spinRun is the observable outcome of one spinProgram run.
type spinRun struct {
	order    []string
	now      Time
	events   uint64
	handoffs uint64
}

// spinProgram runs three contexts that spin on a shared counter with the
// same probe and poll costs, so their wake-ups tie at every round and only
// the event sequence orders them. Every check increments the counter and
// logs who made it at which time; context k stops once the counter reaches
// 10*(k+1). A callback in the middle of the spins adds a foreign event at
// a tied time. With poll set, the spins run as Poll steps; otherwise as
// the open-coded Advance loop Poll stands for.
func spinProgram(poll bool) spinRun {
	const probe, wait = 3, 2
	e := NewEngine()
	var r spinRun
	count := 0
	e.At(10, func() { r.order = append(r.order, fmt.Sprintf("cb@%d", e.Now())) })
	for k := 0; k < 3; k++ {
		k := k
		e.Spawn(fmt.Sprintf("c%d", k), 0, func(c *Context) {
			check := func() bool {
				count++
				r.order = append(r.order, fmt.Sprintf("c%d@%d", k, c.Now()))
				return count >= 10*(k+1)
			}
			if poll {
				probed := true // the pending wake-up ends a probe
				c.Poll(probe, StepFunc(func() Time {
					if !probed {
						probed = true
						return probe
					}
					if check() {
						return 0
					}
					probed = false
					return wait
				}))
			} else {
				for {
					c.Advance(probe)
					if check() {
						break
					}
					c.Advance(wait)
				}
			}
			c.Advance(1)
			r.order = append(r.order, fmt.Sprintf("c%d done@%d", k, c.Now()))
		})
	}
	if err := e.Run(); err != nil {
		panic(err)
	}
	r.now, r.events, r.handoffs = e.Now(), e.Events(), e.Handoffs()
	return r
}

// Poll is an exact replacement for the spin loop it stands for: the same
// interleaving under equal-time ties, the same final time and the same
// events, with fewer coroutine resumes.
func TestPollMatchesAdvanceLoop(t *testing.T) {
	loop, polled := spinProgram(false), spinProgram(true)
	if fmt.Sprint(polled.order) != fmt.Sprint(loop.order) {
		t.Fatalf("interleaving differs:\n loop %v\n poll %v", loop.order, polled.order)
	}
	if polled.now != loop.now {
		t.Errorf("Now() = %d with Poll, %d with the loop", polled.now, loop.now)
	}
	if polled.events != loop.events {
		t.Errorf("Events() = %d with Poll, %d with the loop", polled.events, loop.events)
	}
	if polled.handoffs >= loop.handoffs {
		t.Errorf("Handoffs() = %d with Poll, want fewer than the loop's %d", polled.handoffs, loop.handoffs)
	}
	// Each context resumes at start, after its spin and after Advance(1).
	if polled.handoffs != 9 {
		t.Errorf("Handoffs() = %d with Poll, want 9", polled.handoffs)
	}
}

// Poll(0, step) runs step at once, and returns without parking when step
// reports the wait is already over.
func TestPollZeroDelayRunsStepInline(t *testing.T) {
	e := NewEngine()
	calls := 0
	e.Spawn("p", 0, func(c *Context) {
		c.Poll(0, StepFunc(func() Time { calls++; return 0 }))
		if c.Now() != 0 {
			t.Errorf("Poll(0) with a finished step took %d cycles", c.Now())
		}
	})
	if err := e.Run(); err != nil {
		t.Fatal(err)
	}
	if calls != 1 || e.Events() != 1 || e.Handoffs() != 1 {
		t.Fatalf("calls=%d events=%d handoffs=%d, want 1 each", calls, e.Events(), e.Handoffs())
	}
}

// endlessPoller spawns a context that polls forever and records whether
// its deferred cleanup ran.
func endlessPoller(e *Engine, cleaned *bool) {
	e.Spawn("poller", 0, func(c *Context) {
		defer func() { *cleaned = true }()
		c.Poll(5, StepFunc(func() Time { return 5 }))
		panic("poller resumed")
	})
}

// A context parked in Poll is unwound by Close, its defers run.
func TestPollUnwoundByClose(t *testing.T) {
	e := NewEngine()
	cleaned := false
	endlessPoller(e, &cleaned)
	e.At(20, func() { panic("stop") })
	func() {
		defer func() {
			if r := recover(); r != "stop" {
				t.Fatalf("Run panicked with %v, want \"stop\"", r)
			}
		}()
		_ = e.Run()
	}()
	e.Close()
	if !e.Finished() || !cleaned {
		t.Fatalf("Close left finished=%v cleaned=%v", e.Finished(), cleaned)
	}
}

// A poller always has its next round scheduled, so only a lost wake-up
// (forced here by emptying the heap) can leave one parked when Run finds a
// deadlock; the deadlock teardown must still unwind it.
func TestPollUnwoundByDeadlockTeardown(t *testing.T) {
	e := NewEngine()
	cleaned := false
	endlessPoller(e, &cleaned)
	e.At(20, func() { e.events.ev = e.events.ev[:0] })
	if err := e.Run(); err == nil {
		t.Fatal("expected a deadlock error")
	}
	if !e.Finished() || !cleaned {
		t.Fatalf("teardown left finished=%v cleaned=%v", e.Finished(), cleaned)
	}
}

// A panic in a step runs on the engine's goroutine and surfaces from Run
// with its original value; Close then releases the polling context.
func TestPollStepPanicSurfacesFromRun(t *testing.T) {
	e := NewEngine()
	cleaned := false
	e.Spawn("p", 0, func(c *Context) {
		defer func() { cleaned = true }()
		c.Poll(5, StepFunc(func() Time { panic("step") }))
	})
	func() {
		defer func() {
			if r := recover(); r != "step" {
				t.Fatalf("Run panicked with %v, want \"step\"", r)
			}
		}()
		_ = e.Run()
		t.Fatal("Run returned instead of panicking")
	}()
	if e.running {
		t.Fatal("engine still marked running after the panic")
	}
	e.Close()
	if !cleaned {
		t.Fatal("Close did not unwind the polling context")
	}
}

// counterStep polls until n rounds have passed: a Stepper made from a
// pointer to caller state.
type counterStep struct{ n int }

func (s *counterStep) Step() Time {
	if s.n--; s.n <= 0 {
		return 0
	}
	return 1
}

// Poll rounds allocate nothing: a run's allocations (engine and context
// setup) do not grow with the number of rounds.
func TestPollRoundsAllocFree(t *testing.T) {
	allocs := func(rounds int) float64 {
		return testing.AllocsPerRun(10, func() {
			e := NewEngine()
			s := &counterStep{}
			e.Spawn("p", 0, func(c *Context) {
				s.n = rounds
				c.Poll(1, s)
			})
			if err := e.Run(); err != nil {
				t.Fatal(err)
			}
		})
	}
	if few, many := allocs(2), allocs(2000); many != few {
		t.Fatalf("a run cost %.0f allocs with 2 poll rounds and %.0f with 2000", few, many)
	}
}

// BenchmarkPollRound measures one engine-context poll round per op: pop
// the wake-up, run the step, re-schedule.
func BenchmarkPollRound(b *testing.B) {
	b.ReportAllocs()
	e := NewEngine()
	s := &counterStep{n: b.N + 1}
	e.Spawn("p", 0, func(c *Context) { c.Poll(1, s) })
	b.ResetTimer()
	if err := e.Run(); err != nil {
		b.Fatal(err)
	}
}
