//go:build go1.23

// Package sim provides a deterministic discrete-event simulation engine
// with coroutine execution contexts.
//
// The engine drives a set of contexts (simulated processors). Exactly one
// context runs at any instant: the engine pops the earliest event from its
// heap and resumes the owning context, and the context runs real Go code
// until it needs simulated time to pass, at which point it parks itself
// and control returns to the engine. Ties in event time are broken by
// event sequence number, so a given program produces an identical event
// order on every run. Because only one context executes at a time, code
// running inside contexts may freely share simulator data structures
// without locks.
//
// Each context body runs inside an iter.Pull coroutine: resuming a context
// is a call to its next function and parking is a yield, a direct switch
// between the engine and the context with no channel or scheduler round
// trip. A panic in a context body therefore surfaces from Engine.Run on
// the caller's goroutine. The event heap is allocation-free on the hot
// path: events are plain values in a concrete 4-ary heap (no
// container/heap interface boxing).
//
// The build constraint raises this file's language version to go1.23, the
// release that added iter.Pull, while go.mod keeps the module at go 1.22
// so that modules pinned at go 1.22 (perfbench) can still depend on it.
package sim

import (
	"fmt"
	"iter"
)

// Time is a simulation timestamp, measured in processor clock cycles.
type Time = uint64

// event is a scheduled occurrence: either waking a parked context or
// running a callback at a given time.
type event struct {
	at  Time
	seq uint64
	ctx *Context
	fn  func()
}

// eventHeap is a 4-ary min-heap of events ordered by (at, seq). A concrete
// element type keeps Push/Pop free of interface{} boxing — with
// container/heap every scheduled event cost two heap allocations, which
// dominated the simulator's allocation profile. The wider fan-out also
// halves the tree depth versus a binary heap, trading cheap sibling
// comparisons for pointer-chasing sift steps.
type eventHeap struct {
	ev []event
}

// less orders events by time, breaking ties by insertion sequence so event
// order is identical on every run.
func (h *eventHeap) less(i, j int) bool {
	a, b := &h.ev[i], &h.ev[j]
	return a.at < b.at || (a.at == b.at && a.seq < b.seq)
}

func (h *eventHeap) push(e event) {
	h.ev = append(h.ev, e)
	i := len(h.ev) - 1
	for i > 0 {
		p := (i - 1) >> 2
		if !h.less(i, p) {
			break
		}
		h.ev[i], h.ev[p] = h.ev[p], h.ev[i]
		i = p
	}
}

func (h *eventHeap) pop() event {
	root := h.ev[0]
	n := len(h.ev) - 1
	h.ev[0] = h.ev[n]
	h.ev[n] = event{} // drop fn/ctx references for the GC
	h.ev = h.ev[:n]
	i := 0
	for {
		first := i<<2 + 1
		if first >= n {
			break
		}
		min := first
		last := first + 4
		if last > n {
			last = n
		}
		for c := first + 1; c < last; c++ {
			if h.less(c, min) {
				min = c
			}
		}
		if !h.less(min, i) {
			break
		}
		h.ev[i], h.ev[min] = h.ev[min], h.ev[i]
		i = min
	}
	return root
}

// initialHeapCap sizes the event slice so steady-state simulations (a few
// pending events per context) never grow it.
const initialHeapCap = 256

// Engine is a discrete-event simulator.
type Engine struct {
	now      Time
	seq      uint64
	events   eventHeap
	contexts []*Context
	running  bool
	popped   uint64 // events popped by Run
	handoffs uint64 // context resumes by Run
}

// NewEngine returns an empty engine at time zero.
func NewEngine() *Engine {
	return &Engine{events: eventHeap{ev: make([]event, 0, initialHeapCap)}}
}

// Now returns the current simulation time.
func (e *Engine) Now() Time { return e.now }

// Events returns how many events Run has popped, callbacks and context
// wake-ups alike. Like every simulated quantity it is deterministic.
func (e *Engine) Events() uint64 { return e.popped }

// Handoffs returns how many times Run has resumed a context: one per
// context start plus one per park that was woken.
func (e *Engine) Handoffs() uint64 { return e.handoffs }

// schedule enqueues an event at absolute time at.
func (e *Engine) schedule(at Time, ctx *Context, fn func()) {
	if at < e.now {
		at = e.now
	}
	e.seq++
	e.events.push(event{at: at, seq: e.seq, ctx: ctx, fn: fn})
}

// At schedules fn to run at absolute simulation time at. fn runs in engine
// context and must not park.
func (e *Engine) At(at Time, fn func()) { e.schedule(at, nil, fn) }

// Spawn creates a context that will begin executing fn at time start.
// Contexts must be spawned before Run (or from a running context or
// callback); fn receives the context for parking operations.
func (e *Engine) Spawn(name string, start Time, fn func(*Context)) *Context {
	c := &Context{eng: e, name: name}
	c.next, c.stop = iter.Pull(func(yield func(struct{}) bool) {
		c.yield = yield
		defer func() {
			if r := recover(); r != nil {
				if _, ok := r.(abortPark); !ok {
					panic(r)
				}
			}
		}()
		fn(c)
	})
	e.contexts = append(e.contexts, c)
	e.schedule(start, c, nil)
	return c
}

// Run executes events until the heap is empty. It returns an error if
// unfinished contexts remain when the heap drains (a deadlock: some context
// parked without a scheduled wake-up, which indicates a bug in the caller's
// synchronization code). On the deadlock path the engine tears the parked
// contexts down before returning, so their coroutines are released instead
// of leaking suspended on a resume that will never come. A panic in a
// context body propagates out of Run; Close then releases the rest.
func (e *Engine) Run() error {
	if e.running {
		return fmt.Errorf("sim: engine already running")
	}
	e.running = true
	defer func() { e.running = false }()
	for len(e.events.ev) > 0 {
		ev := e.events.pop()
		e.now = ev.at
		e.popped++
		if ev.fn != nil {
			ev.fn()
			continue
		}
		c := ev.ctx
		if c.finished {
			continue
		}
		e.handoffs++
		if _, ok := c.next(); !ok {
			c.finished = true
		}
	}
	for _, c := range e.contexts {
		if !c.finished {
			err := fmt.Errorf("sim: deadlock: context %q parked with no pending event at t=%d", c.name, e.now)
			e.teardown()
			return err
		}
	}
	return nil
}

// Close tears down any unfinished contexts, releasing their coroutines. It
// is a no-op on an engine whose contexts all ran to completion; Run invokes
// it automatically when it detects a deadlock, so explicit calls are only
// needed when an engine is abandoned without being run (or after Run
// returned an unrelated error or panicked). Close must not be called while
// Run is executing.
func (e *Engine) Close() {
	if e.running {
		panic("sim: Close called on a running engine")
	}
	e.teardown()
}

// teardown stops every unfinished context. A parked context's yield
// returns false and it unwinds out of its call stack via the abortPark
// panic, running its deferred cleanups; a context whose body never
// started is just marked done.
func (e *Engine) teardown() {
	for _, c := range e.contexts {
		if !c.finished {
			c.stop()
			c.finished = true
		}
	}
}

// Finished reports whether every spawned context has completed.
func (e *Engine) Finished() bool {
	for _, c := range e.contexts {
		if !c.finished {
			return false
		}
	}
	return true
}

// abortPark is the panic value used to unwind a stopped context out of a
// park point; it never escapes the coroutine that raised it.
type abortPark struct{}

// Context is a simulated thread of execution managed by an Engine.
type Context struct {
	eng      *Engine
	name     string
	next     func() (struct{}, bool) // resumes the body until it parks or returns
	stop     func()                  // unwinds a parked body, or cancels an unstarted one
	yield    func(struct{}) bool     // parks the body; false once stop was called
	finished bool
}

// Name returns the context's debug name.
func (c *Context) Name() string { return c.name }

// Engine returns the owning engine.
func (c *Context) Engine() *Engine { return c.eng }

// Now returns the current simulation time.
func (c *Context) Now() Time { return c.eng.now }

// park suspends the context until the engine resumes it. If the engine is
// tearing down, the context unwinds instead of resuming.
func (c *Context) park() {
	if !c.yield(struct{}{}) {
		panic(abortPark{})
	}
}

// WaitUntil parks the context until absolute time at (no-op if at <= now).
func (c *Context) WaitUntil(at Time) {
	if at <= c.eng.now {
		return
	}
	c.eng.schedule(at, c, nil)
	c.park()
}

// Advance parks the context for d cycles of simulated time.
func (c *Context) Advance(d Time) {
	if d == 0 {
		return
	}
	c.eng.schedule(c.eng.now+d, c, nil)
	c.park()
}

// SpinUntil repeatedly evaluates cond, advancing poll cycles between
// evaluations (and charging perPoll, e.g. a flag load latency, via the
// charge callback if non-nil). It returns the total cycles spent waiting.
// cond is evaluated once immediately; if already true the wait is free.
func (c *Context) SpinUntil(cond func() bool, poll Time, charge func() Time) Time {
	if poll == 0 {
		poll = 1
	}
	start := c.eng.now
	for !cond() {
		if charge != nil {
			c.Advance(charge())
		}
		if cond() {
			break
		}
		c.Advance(poll)
	}
	return c.eng.now - start
}

// Resource models a unit that can serve one transaction at a time, with
// queueing delay when busy (contention at network ports, buses, and memory
// controllers is modelled this way).
type Resource struct {
	name      string
	busyUntil Time
	busyTotal Time
	waitTotal Time
	uses      uint64
}

// NewResource returns a named idle resource.
func NewResource(name string) *Resource { return &Resource{name: name} }

// Acquire reserves the resource for occ cycles starting no earlier than
// now, and returns the total delay from now until the reservation ends
// (queueing wait plus occupancy).
func (r *Resource) Acquire(now, occ Time) Time {
	start := now
	if r.busyUntil > start {
		start = r.busyUntil
	}
	r.busyUntil = start + occ
	r.busyTotal += occ
	r.waitTotal += start - now
	r.uses++
	return r.busyUntil - now
}

// Uses returns how many times the resource was acquired.
func (r *Resource) Uses() uint64 { return r.uses }

// BusyUntil returns the time at which the last reservation ends.
func (r *Resource) BusyUntil() Time { return r.busyUntil }

// BusyTotal returns total cycles the resource was occupied.
func (r *Resource) BusyTotal() Time { return r.busyTotal }

// WaitTotal returns total queueing cycles callers spent waiting.
func (r *Resource) WaitTotal() Time { return r.waitTotal }

// Name returns the resource name.
func (r *Resource) Name() string { return r.name }
