package cluster

import (
	"context"
	"encoding/json"
	"errors"
	"io"
	"net/http/httptest"
	"testing"
	"time"

	"repro/internal/server"
)

// workersView decodes GET /cluster/workers.
func workersView(t *testing.T, url string) (workers []WorkerView, degraded bool) {
	t.Helper()
	body, _ := getBody(t, url+"/cluster/workers")
	var v struct {
		Workers  []WorkerView `json:"workers"`
		Degraded bool         `json:"degraded"`
	}
	if err := json.Unmarshal([]byte(body), &v); err != nil {
		t.Fatalf("decode /cluster/workers: %v (%s)", err, body)
	}
	return v.Workers, v.Degraded
}

// A worker is live from its first claim poll, with no registration.
func TestWorkerLiveOnFirstPoll(t *testing.T) {
	clk := newFakeClock()
	co := NewCoordinator(fastCfg(clk))
	defer co.Close()
	ts := httptest.NewServer(co.Handler())
	defer ts.Close()

	if ws, degraded := workersView(t, ts.URL); len(ws) != 0 || !degraded {
		t.Fatalf("before any poll: workers=%+v degraded=%v, want none and degraded", ws, degraded)
	}
	claimOnce(t, ts.URL, "w1", 0)
	ws, degraded := workersView(t, ts.URL)
	if len(ws) != 1 || ws[0].ID != "w1" || ws[0].State != WorkerLive || degraded {
		t.Fatalf("after first poll: workers=%+v degraded=%v, want w1 live", ws, degraded)
	}
}

// TestRegistryViews pins GET /cluster/workers: one entry per worker the
// claim table has heard from, sorted by id, with the age of its last
// poll in last_seen_ms.
func TestRegistryViews(t *testing.T) {
	clk := newFakeClock()
	co := NewCoordinator(fastCfg(clk))
	defer co.Close()
	ts := httptest.NewServer(co.Handler())
	defer ts.Close()

	claimOnce(t, ts.URL, "w2", 0)
	clk.advance(300 * time.Millisecond)
	claimOnce(t, ts.URL, "w1", 0)
	ws, degraded := workersView(t, ts.URL)
	want := []WorkerView{
		{ID: "w1", State: WorkerLive, LastSeenMs: 0},
		{ID: "w2", State: WorkerLive, LastSeenMs: 300},
	}
	if len(ws) != 2 || ws[0] != want[0] || ws[1] != want[1] || degraded {
		t.Fatalf("workers=%+v degraded=%v, want %+v", ws, degraded, want)
	}
}

// TestRegistryStateMachine walks one worker through the claim table's
// liveness states: live on its first poll, dead once silent for longer
// than one lease, and live again on its next poll.
func TestRegistryStateMachine(t *testing.T) {
	const lease = 10 * time.Second
	tb, clk := testTable(lease, 3)
	state := func() string {
		t.Helper()
		ws := tb.Workers()
		if len(ws) != 1 || ws[0].ID != "w1" {
			t.Fatalf("workers = %+v, want only w1", ws)
		}
		return ws[0].State
	}

	tb.Claim("w1")
	if st := state(); st != WorkerLive {
		t.Fatalf("after first poll: %s, want live", st)
	}
	clk.advance(lease)
	if st := state(); st != WorkerLive {
		t.Fatalf("silent for exactly one lease: %s, want live", st)
	}
	clk.advance(time.Millisecond)
	if st := state(); st != WorkerDead {
		t.Fatalf("silent past one lease: %s, want dead", st)
	}
	tb.Claim("w1")
	if st := state(); st != WorkerLive {
		t.Fatalf("after polling again: %s, want live", st)
	}
}

// A worker the coordinator has declared dead (as after a long GC pause
// or a partition) needs no re-registration: its next claim poll brings
// it back live.
func TestAgentReRegistersAfterDeadVerdict(t *testing.T) {
	clk := newFakeClock()
	co := NewCoordinator(fastCfg(clk))
	defer co.Close()
	ts := httptest.NewServer(co.Handler())
	defer ts.Close()

	claimOnce(t, ts.URL, "w1", 0)
	claimOnce(t, ts.URL, "w2", 0)

	// w1 keeps polling; w2 goes silent for longer than the default
	// 10 s lease.
	clk.advance(11 * time.Second)
	claimOnce(t, ts.URL, "w1", 0)
	st := co.Stats()
	if st.Live != 1 || st.Dead != 1 || st.Degraded {
		t.Fatalf("after w2's silence: %+v, want 1 live, 1 dead", st)
	}
	if ws, _ := workersView(t, ts.URL); ws[1].State != WorkerDead {
		t.Fatalf("silent worker = %+v, want dead", ws[1])
	}

	// The dead worker's next poll is its way back.
	claimOnce(t, ts.URL, "w2", 0)
	if st := co.Stats(); st.Live != 2 || st.Dead != 0 {
		t.Fatalf("after w2 polls again: %+v, want 2 live", st)
	}
}

// A worker whose only slot holds one long claim never polls again until
// it finishes; its lease renewals alone must keep it live.
func TestBusyWorkerLiveOnRenewals(t *testing.T) {
	const lease = 10 * time.Second
	tb, clk := testTable(lease, 3)
	tb.Claim("idle") // one empty-handed poll, never repeated
	key := claimKey(1)
	tb.Enqueue(key, "run/CG", "default", 0, nil)
	if _, ok := tb.Claim("busy"); !ok {
		t.Fatal("busy worker's claim refused")
	}

	for i := 0; i < 9; i++ { // three leases' worth of renewals
		clk.advance(lease / 3)
		if !tb.Renew("busy", key, 1) {
			t.Fatalf("renewal %d refused", i)
		}
		for _, w := range tb.Workers() {
			if w.ID == "busy" && w.State != WorkerLive {
				t.Fatalf("renewal %d: busy worker %+v, want live", i, w)
			}
		}
	}
	ws := tb.Workers()
	if len(ws) != 2 || ws[0].ID != "busy" || ws[0].State != WorkerLive || ws[1].ID != "idle" || ws[1].State != WorkerDead {
		t.Fatalf("workers = %+v, want busy live and idle dead", ws)
	}
}

// A worker silent for longer than the lease turns dead, and a Dispatch
// still waiting on its claim falls back with server.ErrNoWorkers.
func TestSilentWorkerDeadDispatchFallsBack(t *testing.T) {
	clk := newFakeClock()
	cfg := fastCfg(clk)
	cfg.LeaseDuration = 100 * time.Millisecond // watchdog ticks every 10ms of real time
	co := NewCoordinator(cfg)
	defer co.Close()
	ts := httptest.NewServer(co.Handler())
	defer ts.Close()

	claimOnce(t, ts.URL, "w1", 0)
	errc := make(chan error, 1)
	go func() {
		_, err := co.Dispatch(context.Background(), testKey, "run/CG", "default", 0, server.JobSpec{}, io.Discard)
		errc <- err
	}()
	waitFor(t, 10*time.Second, func() bool { return len(co.ClaimViews()) == 1 }, "dispatch never enqueued its claim")

	select {
	case err := <-errc:
		t.Fatalf("Dispatch returned %v while w1 was still live", err)
	case <-time.After(50 * time.Millisecond):
	}

	clk.advance(cfg.LeaseDuration + time.Millisecond)
	select {
	case err := <-errc:
		if !errors.Is(err, server.ErrNoWorkers) {
			t.Fatalf("Dispatch after w1 went silent: %v, want ErrNoWorkers", err)
		}
	case <-time.After(10 * time.Second):
		t.Fatal("open Dispatch never noticed its only worker died")
	}
	if st := co.Stats(); st.Live != 0 || st.Dead != 1 || !st.Degraded {
		t.Fatalf("stats after silence: %+v, want 0 live, 1 dead, degraded", st)
	}
}
