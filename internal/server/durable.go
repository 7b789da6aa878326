package server

import (
	"context"
	"encoding/json"
	"fmt"
	"net/http"
	"path/filepath"
	"strings"
	"time"

	"repro/internal/store"
)

// Durability: with Config.DataDir set, every job transition is recorded
// in a write-ahead journal and every completed result is written to a
// disk-backed content-addressed store before the in-memory LRU sees it.
// On startup the journal is replayed: terminal jobs are rehydrated (done
// jobs pick their bytes back up from the result store), and jobs that
// were queued or running when the process died are requeued under a
// bounded retry budget with exponential backoff. This is sound for the
// same reason the result cache is sound — every simulation is
// deterministic and side-effect-free, so at-least-once re-execution is
// idempotent and equal cache keys always name equal bytes.

// journalStateCancelled marks a client cancellation in the journal; it
// folds back to StateFailed on replay (the job never ran to completion).
const journalStateCancelled = "cancelled"

// maxRequeueBackoff caps the exponential backoff between crash-recovery
// requeues.
const maxRequeueBackoff = 30 * time.Second

// Open builds a Server, replaying the journal under cfg.DataDir when one
// is configured, and starts its workers. New is the in-memory
// convenience wrapper; this is the constructor the daemon uses.
func Open(cfg Config) (*Server, error) {
	cfg = cfg.withDefaults()
	s := &Server{
		cfg:       cfg,
		cache:     newLRUCache(cfg.CacheBytes),
		metrics:   &metrics{latency: map[string]*histogram{}},
		jobs:      map[string]*Job{},
		inflight:  map[string]*Job{},
		campaigns: map[string]*campaign{},
		sched:     newScheduler(cfg, time.Now),
		quit:      make(chan struct{}),
	}
	s.runCtx, s.runCancel = context.WithCancel(context.Background())
	if cfg.DataDir != "" {
		rs, err := store.OpenResults(filepath.Join(cfg.DataDir, "results"))
		if err != nil {
			return nil, fmt.Errorf("open result store: %w", err)
		}
		s.store = rs
		jn, recs, err := store.Open(filepath.Join(cfg.DataDir, "journal"), 0)
		if err != nil {
			return nil, fmt.Errorf("open journal: %w", err)
		}
		s.journal = jn
		s.replay(recs)
	}
	s.wg.Add(cfg.Workers)
	for i := 0; i < cfg.Workers; i++ {
		go s.worker()
	}
	s.ready.Store(true)
	return s, nil
}

// replay folds the journal back into live state: terminal jobs
// rehydrate, interrupted jobs requeue (or exhaust their retry budget and
// settle as failed). Runs before the workers start and before the
// handler is reachable, so /readyz turning 200 means replay is complete.
func (s *Server) replay(recs []store.Record) {
	// Jobs first, then campaigns: a campaign rebuild reattaches to the
	// requeued jobs (via the in-flight index) and the cache entries the
	// job pass restored.
	var campRecs, cellRecs []store.Record
	for _, r := range recs {
		if r.Campaign != "" && r.Job == r.Campaign {
			campRecs = append(campRecs, r)
			continue
		}
		if r.Campaign != "" && strings.HasPrefix(r.Job, r.Campaign+"/") {
			cellRecs = append(cellRecs, r)
			continue
		}
		s.noteJobID(r.Job)
		switch r.State {
		case string(StateDone):
			s.rehydrateDone(r)
		case string(StateFailed), journalStateCancelled:
			s.restoreTerminal(r, StateFailed, r.Error, nil)
		default: // queued, running, or anything a future version wrote
			s.requeue(r)
		}
	}
	s.rebuildCampaigns(campRecs, cellRecs)
}

// noteJobID keeps nextID ahead of every journaled id so new submissions
// never collide with rehydrated jobs.
func (s *Server) noteJobID(id string) {
	var n int
	if _, err := fmt.Sscanf(id, "job-%d", &n); err == nil && n > s.nextID {
		s.nextID = n
	}
}

// rehydrateDone restores a completed job, pulling its bytes from the
// result store. A done record whose bytes are gone (store wiped, partial
// copy) degrades to a requeue — determinism makes the re-run produce the
// same result the record promised.
func (s *Server) rehydrateDone(r store.Record) {
	bytes, ok, err := s.store.Get(r.Key)
	if err != nil {
		s.metrics.journalErrs.Add(1)
	}
	if !ok {
		s.requeue(r)
		return
	}
	s.cache.Put(r.Key, bytes)
	s.restoreTerminal(r, StateDone, "", bytes)
}

// restoreTerminal registers a journaled job already in a terminal state.
func (s *Server) restoreTerminal(r store.Record, st State, errMsg string, result []byte) {
	var spec JobSpec
	if len(r.Spec) > 0 {
		json.Unmarshal(r.Spec, &spec) // best-effort: the view shows what survived
	}
	j := newJob(r.Job, r.Key, spec, st)
	j.restored = true
	j.tenant = r.Tenant
	j.priority = PriorityValue(r.Priority)
	j.campaign = r.Campaign
	j.cell = r.Cell
	if r.Attempts > 0 {
		j.attempts = r.Attempts
	}
	j.cached = r.Cached
	j.result = result
	j.errMsg = errMsg
	close(j.done)
	j.broker.close()
	s.jobs[j.ID] = j
	s.order = append(s.order, j.ID)
	s.metrics.recovered.Add(1)
}

// requeue puts a crash-interrupted job back on the queue, charging its
// retry budget. Budget exhaustion and unreplayable specs settle the job
// as permanently failed — journaled, so the next restart doesn't retry
// it again.
func (s *Server) requeue(r store.Record) {
	attempts := r.Attempts
	if attempts < 1 {
		attempts = 1
	}
	next := attempts + 1

	fail := func(msg string) {
		s.restoreTerminal(r, StateFailed, msg, nil)
		s.journalAppend(store.Record{Job: r.Job, Key: r.Key, State: string(StateFailed), Error: msg, Attempts: attempts}, true)
	}
	if next > s.cfg.MaxAttempts {
		fail(fmt.Sprintf("crash-recovery retry budget exhausted after %d attempts", attempts))
		return
	}
	var spec JobSpec
	if err := json.Unmarshal(r.Spec, &spec); err != nil {
		fail(fmt.Sprintf("unreplayable spec: %v", err))
		return
	}
	c, err := compile(spec)
	if err != nil {
		fail(fmt.Sprintf("unreplayable spec: %v", err))
		return
	}
	// Re-derive the key under the current code version: if the version
	// was bumped between restarts, the re-run must cache under the new
	// truth, not the old record's.
	key, err := c.cacheKey(s.cfg.Version)
	if err != nil {
		fail(fmt.Sprintf("unreplayable spec: %v", err))
		return
	}

	j := newJob(r.Job, key, c.spec, StateQueued)
	j.restored = true
	j.attempts = next
	j.tenant = r.Tenant
	j.priority = c.priority
	j.campaign = r.Campaign
	j.cell = r.Cell
	s.jobs[j.ID] = j
	s.order = append(s.order, j.ID)
	s.inflight[key] = j
	s.metrics.requeued.Add(1)
	s.journalAppend(store.Record{Job: j.ID, Key: key, State: string(StateQueued), Attempts: next, Spec: specJSON(c.spec), Tenant: r.Tenant, Priority: PriorityName(c.priority), Campaign: r.Campaign, Cell: r.Cell}, false)

	// Exponential backoff between requeues: the first retry waits one
	// base delay, each further attempt doubles it.
	delay := s.cfg.RetryBackoff << (next - 2)
	if delay > maxRequeueBackoff || delay <= 0 {
		delay = maxRequeueBackoff
	}
	go s.enqueueAfter(j, delay)
}

// enqueueAfter hands a requeued job to the workers after its backoff
// delay. A shutdown (or a client cancel) during the wait abandons the
// hand-off; the job's journaled queued record makes the *next* start
// requeue it instead.
func (s *Server) enqueueAfter(j *Job, delay time.Duration) {
	if delay > 0 {
		t := time.NewTimer(delay)
		defer t.Stop()
		select {
		case <-t.C:
		case <-s.quit:
			return
		case <-j.done:
			return
		}
	}
	select {
	case <-s.quit:
		return
	case <-j.done:
		return
	default:
	}
	// Unconditional: journaled work must never be dropped by admission
	// limits — the budget that bounds it is MaxAttempts.
	s.sched.force(j)
}

// journalAppend records a transition, degrading gracefully on write
// errors: the daemon keeps serving from memory and the failure is
// visible in slipd_journal_errors_total.
func (s *Server) journalAppend(r store.Record, sync bool) {
	if s.journal == nil {
		return
	}
	if err := s.journal.Append(r, sync); err != nil {
		s.metrics.journalErrs.Add(1)
	}
}

// specJSON renders a normalized spec for a journal record.
func specJSON(spec JobSpec) json.RawMessage {
	b, err := json.Marshal(spec)
	if err != nil {
		return nil
	}
	return b
}

// cacheGet is the tiered result lookup: memory LRU first, then the disk
// store (a disk hit re-populates the LRU — eviction only ever drops
// bytes from RAM, the disk copy is permanent).
func (s *Server) cacheGet(key string) ([]byte, bool) {
	if b, ok := s.cache.Get(key); ok {
		return b, true
	}
	if s.store == nil {
		return nil, false
	}
	b, ok, err := s.store.Get(key)
	if err != nil {
		s.metrics.journalErrs.Add(1)
		return nil, false
	}
	if !ok {
		return nil, false
	}
	s.cache.Put(key, b)
	return b, true
}

// cachePut writes through: disk first (so a crash after the put still
// has the bytes), then the LRU.
func (s *Server) cachePut(key string, val []byte) {
	if s.store != nil {
		if err := s.store.Put(key, val); err != nil {
			s.metrics.journalErrs.Add(1)
		}
	}
	s.cache.Put(key, val)
}

// StoreResult lands externally produced result bytes in the tiered
// cache (disk store first, then the LRU). It implements the cluster
// package's ResultSink: a coordinator that learns a claim's outcome —
// from a worker's report or from peer replication — stores the bytes
// here so it can serve GET /results/{key} itself. Safe for any caller
// because keys are content-addressed: equal key, equal bytes.
func (s *Server) StoreResult(key string, result []byte) error {
	if !store.ValidKey(key) {
		return fmt.Errorf("invalid result key %q", key)
	}
	s.cachePut(key, result)
	return nil
}

// LoadResult is the read side of the same seam (the cluster package's
// ResultSource): a coordinator restarting over a claims journal asks
// the tiered cache for the payloads its replayed done entries lost.
func (s *Server) LoadResult(key string) ([]byte, bool) {
	if !store.ValidKey(key) {
		return nil, false
	}
	return s.cacheGet(key)
}

// closePersistence compacts and closes the journal on shutdown. After a
// clean drain every job is terminal, so the compacted journal replays
// with zero requeues.
func (s *Server) closePersistence() {
	if s.journal == nil {
		return
	}
	if err := s.journal.Compact(); err != nil {
		s.metrics.journalErrs.Add(1)
	}
	if err := s.journal.Close(); err != nil {
		s.metrics.journalErrs.Add(1)
	}
}

// handleReady is the readiness probe: 200 only after journal replay
// finished and while the server is accepting work. Liveness stays on
// /healthz.
func (s *Server) handleReady(w http.ResponseWriter, r *http.Request) {
	if !s.ready.Load() {
		httpError(w, http.StatusServiceUnavailable, fmt.Errorf("replaying journal"))
		return
	}
	s.mu.Lock()
	draining := s.draining
	s.mu.Unlock()
	if draining {
		httpError(w, http.StatusServiceUnavailable, fmt.Errorf("draining"))
		return
	}
	resp := map[string]any{"status": "ready"}
	// A coordinator is still ready with zero workers — it executes jobs
	// locally — but the degraded flag tells operators the fleet is gone
	// (or a peer coordinator has stopped taking replication).
	if cs := s.clusterStats(); cs != nil {
		resp["degraded"] = cs.Degraded
		resp["role"] = cs.Role
		if cs.Peers != nil {
			resp["peers"] = cs.Peers
		}
	}
	writeJSON(w, http.StatusOK, resp)
}

// handleResultByKey serves a result straight from the content-addressed
// store (memory or disk). This is the resume path: a client that
// remembers its cache key can pick its result up after a server restart
// without resubmitting.
func (s *Server) handleResultByKey(w http.ResponseWriter, r *http.Request) {
	key := r.PathValue("key")
	if !store.ValidKey(key) {
		httpError(w, http.StatusBadRequest, fmt.Errorf("malformed result key"))
		return
	}
	b, ok := s.cacheGet(key)
	if !ok {
		httpError(w, http.StatusNotFound, fmt.Errorf("no result for key %s", key))
		return
	}
	w.Header().Set("Content-Type", "text/plain; charset=utf-8")
	w.WriteHeader(http.StatusOK)
	w.Write(b)
}

// RecoveryStats reports how many jobs the startup replay rehydrated in a
// terminal state and how many it requeued (exported for the daemon's
// startup log and the smoke tool; the same numbers are in /metrics).
func (s *Server) RecoveryStats() (recovered, requeued uint64) {
	return s.metrics.recovered.Load(), s.metrics.requeued.Load()
}
