package cluster

import (
	"bytes"
	"context"
	"encoding/json"
	"fmt"
	"io"
	"net/http"
	"sync"
	"time"

	"repro/internal/server"
)

// Circuit breaker states for a peer link. A link starts closed; after
// breakerFailures consecutive push failures it opens, and pushes are
// skipped until the link's cooldown (one LeaseDuration) elapses. The
// first push after the cooldown is a half-open probe: success closes
// the breaker, failure re-opens it for another cooldown.
const (
	breakerClosed = iota
	breakerHalfOpen
	breakerOpen
)

// breakerFailures is how many consecutive failed pushes open a breaker.
const breakerFailures = 5

func breakerName(s int) string {
	switch s {
	case breakerOpen:
		return "open"
	case breakerHalfOpen:
		return "half-open"
	default:
		return "closed"
	}
}

// peerLink tracks one peer coordinator's reachability and breaker. The
// replication loop is the only caller of allow/observe; Stats reads
// concurrently.
type peerLink struct {
	url      string
	cooldown time.Duration // open → half-open probe delay

	mu        sync.Mutex
	attempted bool
	ok        bool
	lastOK    time.Time
	fails     int
	state     int
	openUntil time.Time
}

func (p *peerLink) status(now time.Time) server.PeerStatus {
	p.mu.Lock()
	defer p.mu.Unlock()
	s := server.PeerStatus{
		URL:       p.url,
		Reachable: p.attempted && p.ok,
		LagMs:     -1,
		Breaker:   breakerName(p.state),
	}
	if !p.lastOK.IsZero() {
		s.LagMs = now.Sub(p.lastOK).Milliseconds()
	}
	return s
}

// allow reports whether the replication loop should push to this peer
// now. An open breaker swallows pushes until the cooldown elapses, then
// lets exactly one through as the half-open probe.
func (p *peerLink) allow(now time.Time) bool {
	p.mu.Lock()
	defer p.mu.Unlock()
	switch p.state {
	case breakerOpen:
		if now.Before(p.openUntil) {
			return false
		}
		p.state = breakerHalfOpen
		return true
	case breakerHalfOpen:
		// A probe is already in flight (or just failed and observe will
		// re-open); don't stack probes.
		return false
	default:
		return true
	}
}

func (p *peerLink) observe(now time.Time, err error, logf func(string, ...any)) {
	p.mu.Lock()
	wasOK, wasAttempted := p.ok, p.attempted
	p.attempted = true
	p.ok = err == nil
	if err == nil {
		p.lastOK = now
		p.fails = 0
		reclosed := p.state != breakerClosed
		p.state = breakerClosed
		p.mu.Unlock()
		if !wasOK {
			logf("cluster: peer %s reachable", p.url)
		}
		if reclosed {
			logf("cluster: breaker closed for peer %s", p.url)
		}
		return
	}
	p.fails++
	opened := false
	if p.state == breakerHalfOpen || (p.state == breakerClosed && p.fails >= breakerFailures) {
		p.state = breakerOpen
		p.openUntil = now.Add(p.cooldown)
		opened = true
	}
	p.mu.Unlock()
	if wasOK || !wasAttempted {
		logf("cluster: peer %s unreachable: %v", p.url, err)
	}
	if opened {
		logf("cluster: breaker open for peer %s (cooldown %s)", p.url, p.cooldown)
	}
}

// replicateLoop pushes the full claim table to every peer on each
// cadence tick and on every table mutation (the kick channel). Full
// snapshots keep the protocol trivially idempotent: Merge's precedence
// rules make reapplying old state a no-op, so there is no delta
// bookkeeping to corrupt.
func (co *Coordinator) replicateLoop(kick <-chan struct{}) {
	defer co.wg.Done()
	t := time.NewTicker(co.cfg.cadence())
	defer t.Stop()
	for {
		select {
		case <-co.quit:
			return
		case <-t.C:
		case <-kick:
		}
		co.replicateOnce()
	}
}

func (co *Coordinator) replicateOnce() {
	snap := co.table.Snapshot()
	body, err := json.Marshal(ReplicateBatch{From: co.cfg.SelfID, Records: snap})
	if err != nil {
		co.cfg.Logf("cluster: marshal replication batch: %v", err)
		return
	}
	for _, p := range co.peers {
		if !p.allow(co.cfg.Now()) {
			continue
		}
		p.observe(co.cfg.Now(), co.postReplicate(p.url, body), co.cfg.Logf)
	}
}

func (co *Coordinator) postReplicate(url string, body []byte) error {
	ctx, cancel := context.WithTimeout(context.Background(), co.cfg.LeaseDuration/5)
	defer cancel()
	req, err := http.NewRequestWithContext(ctx, http.MethodPost, url+"/cluster/claims/replicate", bytes.NewReader(body))
	if err != nil {
		return err
	}
	req.Header.Set("Content-Type", "application/json")
	resp, err := co.cfg.HTTPClient.Do(req)
	if err != nil {
		return err
	}
	defer resp.Body.Close()
	io.Copy(io.Discard, io.LimitReader(resp.Body, 4096))
	if resp.StatusCode != http.StatusOK {
		return fmt.Errorf("peer answered HTTP %d", resp.StatusCode)
	}
	return nil
}
