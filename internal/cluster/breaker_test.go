package cluster

import (
	"errors"
	"io"
	"net/http"
	"strings"
	"sync/atomic"
	"testing"
	"time"
)

// TestPeerBreakerStateMachine walks one peer link's circuit breaker on
// an injected clock: breakerFailures consecutive push failures open
// it, it refuses pushes until the cooldown ends, then admits exactly
// one half-open probe, whose failure re-opens it for a full cooldown
// and whose success closes it.
func TestPeerBreakerStateMachine(t *testing.T) {
	const cooldown = 10 * time.Second
	clk := newFakeClock()
	p := &peerLink{url: "http://peer-b", cooldown: cooldown}
	var logs []string
	logf := func(format string, args ...any) { logs = append(logs, format) }
	down := errors.New("connection refused")
	expect := func(want string) {
		t.Helper()
		if got := p.status(clk.now()).Breaker; got != want {
			t.Fatalf("breaker = %q, want %q", got, want)
		}
	}

	expect("closed")
	for i := 0; i < breakerFailures; i++ {
		expect("closed")
		if !p.allow(clk.now()) {
			t.Fatalf("closed breaker refused push %d", i+1)
		}
		p.observe(clk.now(), down, logf)
	}
	expect("open")

	for _, d := range []time.Duration{0, time.Second, cooldown - time.Nanosecond} {
		if p.allow(clk.now().Add(d)) {
			t.Fatalf("open breaker allowed a push %s into a %s cooldown", d, cooldown)
		}
	}
	expect("open")

	clk.advance(cooldown)
	if !p.allow(clk.now()) {
		t.Fatal("breaker refused the half-open probe after the cooldown")
	}
	expect("half-open")
	if p.allow(clk.now()) || p.allow(clk.now().Add(time.Hour)) {
		t.Fatal("half-open breaker let a second probe through")
	}

	// A failed probe re-opens for another full cooldown.
	p.observe(clk.now(), down, logf)
	expect("open")
	if p.allow(clk.now().Add(cooldown - time.Nanosecond)) {
		t.Fatal("re-opened breaker allowed a push before its new cooldown ended")
	}
	clk.advance(cooldown)
	if !p.allow(clk.now()) {
		t.Fatal("breaker refused the second probe")
	}
	expect("half-open")

	// A successful probe closes it, and the failure count restarts.
	p.observe(clk.now(), nil, logf)
	expect("closed")
	if st := p.status(clk.now()); !st.Reachable || st.LagMs != 0 {
		t.Fatalf("status after a successful probe = %+v", st)
	}
	for i := 0; i < breakerFailures-1; i++ {
		if !p.allow(clk.now()) {
			t.Fatalf("closed breaker refused push %d", i+1)
		}
		p.observe(clk.now(), down, logf)
	}
	expect("closed")

	var opened, closed int
	for _, l := range logs {
		opened += strings.Count(l, "breaker open")
		closed += strings.Count(l, "breaker closed")
	}
	if opened != 2 || closed != 1 {
		t.Fatalf("logged %d opens and %d closes, want 2 and 1: %q", opened, closed, logs)
	}
}

// roundTripFunc adapts a function to http.RoundTripper.
type roundTripFunc func(*http.Request) (*http.Response, error)

func (f roundTripFunc) RoundTrip(r *http.Request) (*http.Response, error) { return f(r) }

// TestCoordinatorBreakerDefaults: a coordinator's replication loop
// stops pushing to a peer after breakerFailures failures and probes it
// again only once one LeaseDuration has passed on its clock.
func TestCoordinatorBreakerDefaults(t *testing.T) {
	clk := newFakeClock()
	var pushes atomic.Int64
	var healthy atomic.Bool
	client := &http.Client{Transport: roundTripFunc(func(r *http.Request) (*http.Response, error) {
		pushes.Add(1)
		if !healthy.Load() {
			return nil, errors.New("connection refused")
		}
		return &http.Response{StatusCode: http.StatusOK, Body: io.NopCloser(strings.NewReader("{}")), Request: r}, nil
	})}
	const lease = 200 * time.Millisecond
	co := NewCoordinator(Config{
		LeaseDuration: lease,
		Peers:         []string{"http://peer-b"},
		HTTPClient:    client,
		Now:           clk.now,
	})
	defer co.Close()
	breaker := func() string { return co.Stats().Peers[0].Breaker }
	waitFor := func(what string, cond func() bool) {
		t.Helper()
		deadline := time.Now().Add(10 * time.Second)
		for !cond() {
			if time.Now().After(deadline) {
				t.Fatalf("timed out waiting for %s (breaker %s, %d pushes)", what, breaker(), pushes.Load())
			}
			time.Sleep(time.Millisecond)
		}
	}

	waitFor("the breaker to open", func() bool { return breaker() == "open" })
	if n := pushes.Load(); n != breakerFailures {
		t.Fatalf("breaker opened after %d pushes, want %d", n, breakerFailures)
	}
	// The loop keeps ticking on real time; the frozen clock holds the
	// breaker open.
	time.Sleep(5 * lease / 10)
	if n := pushes.Load(); n != breakerFailures {
		t.Fatalf("open breaker let %d pushes through", n-breakerFailures)
	}

	clk.advance(lease - time.Nanosecond)
	time.Sleep(3 * lease / 10)
	if n := pushes.Load(); n != breakerFailures {
		t.Fatalf("breaker probed before one LeaseDuration (%d pushes)", n)
	}
	healthy.Store(true)
	clk.advance(time.Nanosecond)
	waitFor("the probe to close the breaker", func() bool { return breaker() == "closed" })
	if n := pushes.Load(); n < breakerFailures+1 {
		t.Fatalf("breaker closed without a probe (%d pushes)", n)
	}
}
