package simtest

import (
	"bytes"
	"fmt"
	"sync"
	"time"

	"repro/internal/cluster"
)

// The harness checks two families of invariants:
//
// Continuous (the monitor goroutine, running throughout the schedule):
//   - a claim's attempt counter never regresses within one coordinator
//     epoch (restarts may legitimately lose un-fsynced grants, so the
//     scope is per epoch, keyed by name#epoch|key);
//   - no attempt ever exceeds the configured budget.
//
// At rest (after heal + quiesce + resurrection, once the cluster has
// had SettleTimeout to converge):
//   - every job that reached any claim table is terminal — and
//     terminal-done — on every coordinator;
//   - every coordinator's stored bytes for a key are byte-identical to
//     the chaos-free reference (computed from the oracle, not from any
//     run);
//   - no lease is still held after settle.
//
// Exactly-one-terminal-state per coordinator is structural (the table
// maps key → one entry), so divergence shows up as byte or state
// mismatches between coordinators, which the at-rest checks catch.

func short(key string) string {
	if len(key) > 10 {
		return key[:10]
	}
	return key
}

// monitor polls every live coordinator's claim views and flags attempt
// regressions and budget overruns the moment they appear.
func (h *harness) monitor(stop <-chan struct{}, wg *sync.WaitGroup) {
	defer wg.Done()
	last := map[string]int{}
	flagged := map[string]bool{}
	tick := time.NewTicker(2 * time.Millisecond)
	defer tick.Stop()
	for {
		select {
		case <-stop:
			return
		case <-tick.C:
		}
		for _, n := range h.coords {
			co, _, epoch, alive := n.snapshot()
			if !alive {
				continue
			}
			for _, v := range co.ClaimViews() {
				id := fmt.Sprintf("%s#%d|%s", n.name, epoch, v.Key)
				if v.Attempt > simMaxAttempts && !flagged["budget|"+id] {
					flagged["budget|"+id] = true
					h.violate("%s epoch %d key %s: attempt %d exceeds the budget of %d", n.name, epoch, short(v.Key), v.Attempt, simMaxAttempts)
				}
				if prev, ok := last[id]; ok && v.Attempt < prev {
					h.violate("%s epoch %d key %s: claim attempt regressed %d -> %d", n.name, epoch, short(v.Key), prev, v.Attempt)
				}
				last[id] = v.Attempt
			}
		}
	}
}

// settle ends the weather and brings every crashed node back, then
// waits for the cluster to converge: the scripted client's calls must
// all have terminated, and the at-rest claim-table condition must hold.
func (h *harness) settle(clientWG *sync.WaitGroup) {
	ch := h.net.Chaos()
	ch.Heal()
	ch.Quiesce()
	for _, n := range h.coords {
		if _, _, _, alive := n.snapshot(); !alive {
			if err := n.start(); err != nil {
				h.violate("settle restart %s: %v", n.name, err)
			}
		}
	}
	for i, w := range h.workers {
		if w.crashed.Load() {
			h.retired = append(h.retired, w)
			h.workers[i] = h.startWorker(w.name)
		}
	}
	clientWG.Wait()
	deadline := time.Now().Add(h.opts.SettleTimeout)
	for {
		ok, _ := h.converged()
		if ok {
			return
		}
		if time.Now().After(deadline) {
			_, detail := h.converged()
			h.violate("settle timeout: cluster failed to converge: %s", detail)
			return
		}
		time.Sleep(10 * time.Millisecond)
	}
}

// converged reports whether every key known to any coordinator is
// settled done everywhere with reference-identical bytes; detail names
// the first obstacle for the settle-timeout report.
func (h *harness) converged() (bool, string) {
	per := make([]map[string]cluster.ClaimView, len(h.coords))
	union := map[string]bool{}
	for i, n := range h.coords {
		co, _, _, alive := n.snapshot()
		if !alive {
			return false, n.name + " is down"
		}
		vm := map[string]cluster.ClaimView{}
		for _, v := range co.ClaimViews() {
			vm[v.Key] = v
			union[v.Key] = true
		}
		per[i] = vm
	}
	for key := range union {
		for i, n := range h.coords {
			v, ok := per[i][key]
			if !ok {
				return false, fmt.Sprintf("%s has no entry for key %s", n.name, short(key))
			}
			if v.State != cluster.ClaimDone {
				return false, fmt.Sprintf("%s key %s is %s, want done", n.name, short(key), v.State)
			}
			b, ok := n.sink.get(key)
			if !ok {
				return false, fmt.Sprintf("%s settled key %s without storing bytes", n.name, short(key))
			}
			if want := h.ref[key]; want != nil && !bytes.Equal(b, want) {
				return false, fmt.Sprintf("%s stored bytes for key %s diverge from the chaos-free reference", n.name, short(key))
			}
		}
	}
	return true, ""
}

// checkConverged runs the full at-rest sweep after settle, recording
// every violation individually (settle records only the first obstacle
// on timeout; this enumerates the rest).
func (h *harness) checkConverged() {
	union := map[string]bool{}
	type entry struct {
		node string
		view cluster.ClaimView
	}
	byKey := map[string][]entry{}
	for _, n := range h.coords {
		co, _, _, alive := n.snapshot()
		if !alive {
			h.violate("%s is down after settle", n.name)
			continue
		}
		for _, v := range co.ClaimViews() {
			union[v.Key] = true
			byKey[v.Key] = append(byKey[v.Key], entry{n.name, v})
			if v.State == cluster.ClaimClaimed {
				h.violate("%s key %s: lease still held by %q after settle", n.name, short(v.Key), v.ClaimedBy)
			}
			if v.State == cluster.ClaimFailed {
				h.violate("%s key %s: settled failed under a budget no schedule can exhaust", n.name, short(v.Key))
			}
		}
	}
	for key := range union {
		if len(byKey[key]) != len(h.coords) {
			h.violate("key %s replicated to %d of %d coordinators", short(key), len(byKey[key]), len(h.coords))
		}
		want := h.ref[key]
		if want == nil {
			h.violate("claim tables hold unknown key %s", short(key))
			continue
		}
		for _, n := range h.coords {
			if _, _, _, alive := n.snapshot(); !alive {
				continue
			}
			if b, ok := n.sink.get(key); ok && !bytes.Equal(b, want) {
				h.violate("%s key %s: stored %d bytes diverging from the %d-byte reference", n.name, short(key), len(b), len(want))
			}
		}
	}
}
