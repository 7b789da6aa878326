package server

import (
	"bytes"
	"context"
	"encoding/json"
	"errors"
	"fmt"
	"net/http"
	"strings"
	"sync"
	"sync/atomic"
	"time"

	"repro/internal/store"
)

// Config sizes a Server. Zero values take the documented defaults.
type Config struct {
	// CacheBytes is the result cache budget (default 64 MiB; negative
	// disables caching).
	CacheBytes int64
	// Workers is the number of concurrent jobs (default 2). Each job may
	// itself fan its matrix out over SuiteJobs simulator goroutines.
	Workers int
	// SuiteJobs is the per-job matrix concurrency handed to the
	// experiments runner (0 = runner default of GOMAXPROCS).
	SuiteJobs int
	// QueueDepth bounds jobs waiting for a worker (default 256); beyond
	// it POST /jobs returns 503 with a Retry-After header.
	QueueDepth int
	// JobTimeout bounds one job's execution wall clock (0 = no limit). A
	// job that blows the limit settles as failed; the worker moves on.
	JobTimeout time.Duration
	// Version is the code-version component of cache keys (default
	// CacheKeyVersion). Tests override it to partition cache spaces.
	Version string
	// DataDir roots the durability layer (write-ahead job journal plus
	// disk-backed result store). Empty = memory-only: a restart loses
	// queued jobs and cached results.
	DataDir string
	// MaxAttempts bounds the crash-recovery retry budget: a job found
	// queued/running in the journal at startup is requeued until its
	// attempt count would exceed this, then permanently failed
	// (default 3).
	MaxAttempts int
	// RetryBackoff is the base delay before re-running a crash-recovered
	// job; it doubles per attempt (default 250ms, capped at 30s).
	RetryBackoff time.Duration
	// Cluster, when non-nil, turns this server into a fleet coordinator:
	// job execution is dispatched through the backend (which owns worker
	// liveness and failover) and only falls back to local
	// in-process execution when the backend reports ErrNoWorkers.
	Cluster Cluster
	// Tenants configures named tenants with API keys and per-tenant
	// admission limits. Requests without a recognized key run as the
	// shared default tenant under TenantDefaults.
	Tenants []TenantConfig
	// TenantDefaults applies to the default tenant and to unrecognized
	// API keys (each of which becomes its own tenant). The zero value —
	// unlimited rate and backlog, weight 1 — reproduces the pre-tenant
	// behavior exactly.
	TenantDefaults TenantLimits
}

func (c Config) withDefaults() Config {
	if c.CacheBytes == 0 {
		c.CacheBytes = 64 << 20
	}
	if c.Workers <= 0 {
		c.Workers = 2
	}
	if c.QueueDepth <= 0 {
		c.QueueDepth = 256
	}
	if c.Version == "" {
		c.Version = CacheKeyVersion
	}
	if c.MaxAttempts <= 0 {
		c.MaxAttempts = 3
	}
	if c.RetryBackoff <= 0 {
		c.RetryBackoff = 250 * time.Millisecond
	}
	return c
}

// Server is the slipd core: a job queue over the simulation runners, a
// single-flight layer that coalesces identical submissions, a
// content-addressed result cache, and the metrics that make all of it
// observable. It is torn down with Shutdown.
type Server struct {
	cfg     Config
	cache   *lruCache
	metrics *metrics

	// Durability layer, both nil when Config.DataDir is empty.
	journal *store.Journal
	store   *store.ResultStore
	ready   atomic.Bool // journal replay finished; /readyz gates on it

	mu       sync.Mutex
	jobs     map[string]*Job
	order    []string        // insertion order for GET /jobs
	inflight map[string]*Job // cache key → queued/running job
	nextID   int
	draining bool

	// Campaign registry, guarded by campMu (never taken while holding
	// s.mu — campaign code locks camp.mu/campMu first, then s.mu).
	campMu    sync.Mutex
	campaigns map[string]*campaign
	campOrder []string
	nextCamp  int

	sched *scheduler    // tenant-aware admission + weighted-fair dispatch
	quit  chan struct{} // closed by Shutdown: drain queue, then exit
	wg    sync.WaitGroup

	runCtx    context.Context // parent of every job context
	runCancel context.CancelFunc

	// testBeforeRun, when set by a test before the first submission, is
	// invoked by the worker as it picks a job up — the only way to hold a
	// worker busy deterministically without a sleep.
	testBeforeRun func(*Job)
	// testDuringRun runs inside the worker's panic guard, after the job
	// transitions to running — a hook that panics exercises recovery.
	testDuringRun func(*Job)
}

// New builds a Server and starts its workers. It is the memory-only
// convenience constructor: with Config.DataDir set, use Open, which can
// fail on disk errors (New panics on them instead).
func New(cfg Config) *Server {
	s, err := Open(cfg)
	if err != nil {
		panic(fmt.Sprintf("server.New: %v (use server.Open for durable configs)", err))
	}
	return s
}

// Handler returns the HTTP API.
func (s *Server) Handler() http.Handler {
	mux := http.NewServeMux()
	mux.HandleFunc("POST /jobs", s.handleSubmit)
	mux.HandleFunc("GET /jobs", s.handleList)
	mux.HandleFunc("GET /jobs/{id}", s.handleGet)
	mux.HandleFunc("GET /jobs/{id}/result", s.handleResult)
	mux.HandleFunc("GET /jobs/{id}/events", s.handleEvents)
	mux.HandleFunc("DELETE /jobs/{id}", s.handleCancel)
	mux.HandleFunc("POST /campaigns", s.handleCampaignSubmit)
	mux.HandleFunc("GET /campaigns", s.handleCampaignList)
	mux.HandleFunc("GET /campaigns/{id}", s.handleCampaignGet)
	mux.HandleFunc("GET /campaigns/{id}/events", s.handleCampaignEvents)
	mux.HandleFunc("DELETE /campaigns/{id}", s.handleCampaignCancel)
	mux.HandleFunc("GET /results/{key}", s.handleResultByKey)
	mux.HandleFunc("GET /metrics", s.handleMetrics)
	mux.HandleFunc("GET /healthz", s.handleHealth)
	mux.HandleFunc("GET /readyz", s.handleReady)
	mux.HandleFunc("GET /version", s.handleVersion)
	return mux
}

// submitResponse is the POST /jobs body.
type submitResponse struct {
	Job    JobView `json:"job"`
	Dedup  bool    `json:"dedup"`  // coalesced onto an existing in-flight job
	Cached bool    `json:"cached"` // answered from the result cache
}

// Submission sentinels, shared by POST /jobs and the programmatic
// SubmitJSON path (the cluster dispatch endpoint maps them to 503s).
var (
	ErrDraining  = errors.New("server is draining")
	ErrQueueFull = errors.New("job queue is full")
)

// SubmitOutcome reports how a submission was answered.
type SubmitOutcome struct {
	Dedup  bool // coalesced onto an existing in-flight job
	Cached bool // answered from the result cache

	// view is the job as the submission left it: a new job reads queued
	// even if a worker has started it by the time the caller replies.
	view JobView
}

// apiKeyFrom extracts the tenant API key from a request: X-API-Key,
// or an Authorization: Bearer token. Absent means the default tenant.
func apiKeyFrom(r *http.Request) string {
	if k := r.Header.Get("X-API-Key"); k != "" {
		return k
	}
	auth := r.Header.Get("Authorization")
	const prefix = "Bearer "
	if len(auth) > len(prefix) && strings.EqualFold(auth[:len(prefix)], prefix) {
		return auth[len(prefix):]
	}
	return ""
}

func (s *Server) handleSubmit(w http.ResponseWriter, r *http.Request) {
	spec, err := decodeSpec(r.Body)
	if err != nil {
		httpError(w, http.StatusBadRequest, err)
		return
	}
	c, err := compile(spec)
	if err != nil {
		httpError(w, http.StatusBadRequest, err)
		return
	}
	key, err := c.cacheKey(s.cfg.Version)
	if err != nil {
		httpError(w, http.StatusInternalServerError, err)
		return
	}
	sub := submission{
		tenant:   s.sched.resolve(apiKeyFrom(r)),
		priority: c.priority,
		charge:   true,
	}
	_, out, err := s.register(c, key, sub)
	switch {
	case errors.Is(err, ErrDraining):
		httpError(w, http.StatusServiceUnavailable, err)
	case errors.Is(err, ErrTenantLimited):
		// The submitting tenant's own limit: 429, not 503 — the daemon
		// has capacity, this caller is over its share.
		secs := 1
		var tl *tenantLimitedError
		if errors.As(err, &tl) {
			secs = retryAfterSeconds(tl.retryAfter)
		}
		w.Header().Set("Retry-After", fmt.Sprintf("%d", secs))
		httpError(w, http.StatusTooManyRequests, err)
	case errors.Is(err, ErrQueueFull):
		// Retry-After tells well-behaved clients to back off instead of
		// hammering.
		w.Header().Set("Retry-After", "1")
		httpError(w, http.StatusServiceUnavailable, err)
	case out.Dedup:
		writeJSON(w, http.StatusOK, submitResponse{Job: out.view, Dedup: true})
	default:
		writeJSON(w, http.StatusCreated, submitResponse{Job: out.view, Cached: out.Cached})
	}
}

// SubmitJSON registers a spec exactly as POST /jobs does — single-flight
// dedup, tiered cache lookup, queue-full shedding — and returns the
// job's view. It is the programmatic seam the cluster worker endpoint
// submits dispatched jobs through. Spec errors come back as-is;
// ErrDraining and ErrQueueFull mark transient refusals.
func (s *Server) SubmitJSON(specJSON []byte) (JobView, SubmitOutcome, error) {
	spec, err := decodeSpec(bytes.NewReader(specJSON))
	if err != nil {
		return JobView{}, SubmitOutcome{}, err
	}
	c, err := compile(spec)
	if err != nil {
		return JobView{}, SubmitOutcome{}, err
	}
	key, err := c.cacheKey(s.cfg.Version)
	if err != nil {
		return JobView{}, SubmitOutcome{}, err
	}
	// Fleet-claim executions queue under the spec's own priority but are
	// not charged admission: the originating coordinator already charged
	// the submitting tenant when it accepted the work.
	_, out, err := s.register(c, key, submission{priority: c.priority})
	if err != nil {
		return JobView{}, out, err
	}
	return out.view, out, nil
}

// CacheKeyFor compiles a spec and returns the content-addressed cache
// key it would run under on this server, without registering anything.
// The cluster worker endpoint uses it to reject dispatches from a
// coordinator running a different code version before any work starts.
func (s *Server) CacheKeyFor(specJSON []byte) (string, error) {
	spec, err := decodeSpec(bytes.NewReader(specJSON))
	if err != nil {
		return "", err
	}
	c, err := compile(spec)
	if err != nil {
		return "", err
	}
	return c.cacheKey(s.cfg.Version)
}

// submission is the admission identity of one register call: which
// tenant the work queues under, at what priority, whether the tenant's
// rate/backlog limits apply (client submissions yes; campaign cells
// paid at campaign admission, fleet claims at their origin), and — for
// campaign cells — which DAG cell this job executes.
type submission struct {
	tenant   string
	priority int
	campaign string
	cell     string
	charge   bool
}

// register is the admission path shared by every submission surface:
// dedup against in-flight work, answer from the cache, or queue.
func (s *Server) register(c *compiledSpec, key string, sub submission) (*Job, SubmitOutcome, error) {
	s.mu.Lock()
	if s.draining {
		s.mu.Unlock()
		return nil, SubmitOutcome{}, ErrDraining
	}

	// Single-flight: an identical job already queued or running answers
	// this submission too. Checked before the cache so a burst of
	// identical submissions costs one run, not one run plus misses.
	if j, ok := s.inflight[key]; ok {
		s.metrics.deduped.Add(1)
		s.mu.Unlock()
		// A higher-priority identical submission lifts the queued job
		// out of the bulk class instead of waiting behind it.
		s.sched.promote(j, sub.priority)
		return j, SubmitOutcome{Dedup: true, view: j.snapshot()}, nil
	}

	// Content-addressed cache: determinism means an equal key is an equal
	// result, so a hit materializes a done job without running anything.
	// The lookup is tiered — memory LRU, then the disk result store.
	if result, ok := s.cacheGet(key); ok {
		j := s.newJobLocked(key, c.spec, StateDone, sub)
		j.cached = true
		j.attempts = 0 // never handed to the queue
		j.result = result
		close(j.done)
		// The job never runs, so nothing else will close its broker; do it
		// here or GET /jobs/{id}/events would stream forever without a
		// terminal event.
		j.broker.close()
		s.metrics.submitted.Add(1)
		// No fsync: losing this record costs a job-listing entry, not a
		// result — the bytes are already durable under the key.
		s.journalAppend(store.Record{Job: j.ID, Key: key, State: string(StateDone), Cached: true, Spec: specJSON(c.spec), Tenant: sub.tenant, Priority: PriorityName(sub.priority), Campaign: sub.campaign, Cell: sub.cell}, false)
		s.mu.Unlock()
		return j, SubmitOutcome{Cached: true, view: j.snapshot()}, nil
	}

	j := s.newJobLocked(key, c.spec, StateQueued, sub)
	view := j.snapshot() // before a worker can pick it up
	if err := s.sched.submit(j, sub.charge); err != nil {
		// Refused admission: roll the registration back and shed load.
		delete(s.jobs, j.ID)
		delete(s.inflight, key)
		s.order = s.order[:len(s.order)-1]
		s.mu.Unlock()
		if errors.Is(err, ErrQueueFull) {
			s.metrics.shed.Add(1)
		}
		return nil, SubmitOutcome{}, err
	}
	s.metrics.submitted.Add(1)
	s.journalAppend(store.Record{Job: j.ID, Key: key, State: string(StateQueued), Attempts: 1, Spec: specJSON(c.spec), Tenant: sub.tenant, Priority: PriorityName(sub.priority), Campaign: sub.campaign, Cell: sub.cell}, false)
	s.mu.Unlock()
	return j, SubmitOutcome{view: view}, nil
}

// newJobLocked registers a job under the next ID. Caller holds s.mu.
// Queued jobs also enter the in-flight index so identical submissions
// coalesce onto them.
func (s *Server) newJobLocked(key string, spec JobSpec, st State, sub submission) *Job {
	s.nextID++
	j := newJob(fmt.Sprintf("job-%d", s.nextID), key, spec, st)
	j.tenant = sub.tenant
	j.priority = sub.priority
	j.campaign = sub.campaign
	j.cell = sub.cell
	s.jobs[j.ID] = j
	s.order = append(s.order, j.ID)
	if st == StateQueued {
		s.inflight[key] = j
	}
	return j
}

func (s *Server) handleList(w http.ResponseWriter, r *http.Request) {
	s.mu.Lock()
	views := make([]JobView, 0, len(s.order))
	for _, id := range s.order {
		views = append(views, s.jobs[id].snapshot())
	}
	s.mu.Unlock()
	writeJSON(w, http.StatusOK, map[string]any{"jobs": views})
}

func (s *Server) lookup(w http.ResponseWriter, r *http.Request) *Job {
	s.mu.Lock()
	j, ok := s.jobs[r.PathValue("id")]
	s.mu.Unlock()
	if !ok {
		httpError(w, http.StatusNotFound, fmt.Errorf("no such job %q", r.PathValue("id")))
		return nil
	}
	return j
}

func (s *Server) handleGet(w http.ResponseWriter, r *http.Request) {
	if j := s.lookup(w, r); j != nil {
		writeJSON(w, http.StatusOK, j.snapshot())
	}
}

func (s *Server) handleResult(w http.ResponseWriter, r *http.Request) {
	j := s.lookup(w, r)
	if j == nil {
		return
	}
	switch j.stateNow() {
	case StateDone:
		result, _ := j.resultBytes()
		w.Header().Set("Content-Type", "text/plain; charset=utf-8")
		w.WriteHeader(http.StatusOK)
		w.Write(result)
	case StateFailed:
		v := j.snapshot()
		httpError(w, http.StatusConflict, fmt.Errorf("job failed: %s", v.Error))
	default:
		httpError(w, http.StatusConflict, fmt.Errorf("job is %s; poll until done", j.stateNow()))
	}
}

// handleEvents streams progress lines as server-sent events: full replay
// for late subscribers, then live lines, then a terminal "state" event.
func (s *Server) handleEvents(w http.ResponseWriter, r *http.Request) {
	j := s.lookup(w, r)
	if j == nil {
		return
	}
	flusher, ok := w.(http.Flusher)
	if !ok {
		httpError(w, http.StatusInternalServerError, fmt.Errorf("streaming unsupported"))
		return
	}
	w.Header().Set("Content-Type", "text/event-stream")
	w.Header().Set("Cache-Control", "no-cache")
	w.WriteHeader(http.StatusOK)

	replay, live := j.broker.subscribe()
	defer j.broker.unsubscribe(live)
	for _, line := range replay {
		fmt.Fprintf(w, "event: progress\ndata: %s\n\n", line)
	}
	flusher.Flush()
	for {
		select {
		case line, ok := <-live:
			if !ok {
				fmt.Fprintf(w, "event: state\ndata: %s\n\n", j.stateNow())
				flusher.Flush()
				return
			}
			fmt.Fprintf(w, "event: progress\ndata: %s\n\n", line)
			flusher.Flush()
		case <-r.Context().Done():
			return
		}
	}
}

func (s *Server) handleCancel(w http.ResponseWriter, r *http.Request) {
	j := s.lookup(w, r)
	if j == nil {
		return
	}
	s.cancelJob(j, "cancelled by client")
	writeJSON(w, http.StatusOK, j.snapshot())
}

// cancelJob aborts a job (shared by DELETE /jobs/{id} and campaign
// cancellation). A job cancelled while still queued settles
// immediately: single-flight, its scheduler slot, its event stream and
// the journal don't wait for a worker to skip it.
func (s *Server) cancelJob(j *Job, reason string) {
	was, ok := j.abort(reason)
	if was == StateQueued && ok {
		s.sched.remove(j) // free the tenant's backlog slot now
		s.clearInflight(j)
		j.broker.close()
		s.journalAppend(store.Record{Job: j.ID, Key: j.Key, State: journalStateCancelled, Error: reason}, true)
	}
}

func (s *Server) handleMetrics(w http.ResponseWriter, r *http.Request) {
	w.Header().Set("Content-Type", "text/plain; version=0.0.4; charset=utf-8")
	writeExposition(w, s.families())
}

func (s *Server) handleHealth(w http.ResponseWriter, r *http.Request) {
	s.mu.Lock()
	draining := s.draining
	s.mu.Unlock()
	if draining {
		httpError(w, http.StatusServiceUnavailable, fmt.Errorf("draining"))
		return
	}
	writeJSON(w, http.StatusOK, map[string]string{"status": "ok"})
}

func (s *Server) handleVersion(w http.ResponseWriter, r *http.Request) {
	writeJSON(w, http.StatusOK, map[string]string{"cache_key_version": s.cfg.Version})
}

// worker runs jobs until the scheduler is empty after Shutdown closes
// quit (pop keeps draining queued work past the close).
func (s *Server) worker() {
	defer s.wg.Done()
	for {
		j, ok := s.sched.pop(s.quit)
		if !ok {
			return
		}
		s.runJob(j)
	}
}

// runJob executes one queued job end to end.
func (s *Server) runJob(j *Job) {
	if s.testBeforeRun != nil {
		s.testBeforeRun(j)
	}
	ctx, cancel := context.WithCancel(s.runCtx)
	defer cancel()
	if !j.tryStart(cancel) {
		return // cancelled while queued; handleCancel settled it
	}
	s.metrics.runs.Add(1)

	j.mu.Lock()
	spec := j.spec
	attempts := j.attempts
	j.mu.Unlock()
	if attempts > 1 {
		s.metrics.retries.Add(1)
	}
	s.journalAppend(store.Record{Job: j.ID, Key: j.Key, State: string(StateRunning), Attempts: attempts}, false)
	c, err := compile(spec)

	var result []byte
	start := time.Now()
	if err == nil {
		execCtx := ctx
		if s.cfg.JobTimeout > 0 {
			var tcancel context.CancelFunc
			execCtx, tcancel = context.WithTimeout(ctx, s.cfg.JobTimeout)
			defer tcancel()
		}
		result, err = s.executeOrDispatch(execCtx, c, j)
		// A blown per-job deadline — not a shutdown or client cancel on
		// the parent context — settles the job as a timeout.
		if err != nil && execCtx.Err() == context.DeadlineExceeded && ctx.Err() == nil {
			s.metrics.timeouts.Add(1)
			err = fmt.Errorf("job exceeded timeout %s: %v", s.cfg.JobTimeout, err)
		}
	}
	elapsed := time.Since(start)

	if err == nil {
		// Order matters across a crash: persist the bytes, then journal
		// the terminal state (fsync'd). A done record therefore always
		// has its result on disk; the reverse gap only costs a re-run.
		// The job leaves the single-flight index once its bytes are cached
		// and before it turns done, so a client that sees it done and
		// resubmits gets the cache answer, not a dedup onto this job.
		s.cachePut(j.Key, result)
		s.clearInflight(j)
		j.finish(result, "")
		s.journalAppend(store.Record{Job: j.ID, Key: j.Key, State: string(StateDone), Attempts: attempts}, true)
	} else {
		s.clearInflight(j)
		j.finish(nil, err.Error())
		s.journalAppend(store.Record{Job: j.ID, Key: j.Key, State: string(StateFailed), Error: err.Error(), Attempts: attempts}, true)
	}
	if c != nil {
		s.metrics.observeLatency(c.label(), elapsed)
	}
	j.broker.close()
}

// executeGuarded runs a compiled spec under the worker's panic guard: a
// panicking kernel fails its own job instead of killing the worker (and
// with it a share of the daemon's capacity).
func (s *Server) executeGuarded(ctx context.Context, c *compiledSpec, j *Job) (result []byte, err error) {
	defer func() {
		if r := recover(); r != nil {
			s.metrics.panics.Add(1)
			result, err = nil, fmt.Errorf("panic: %v", r)
		}
	}()
	if s.testDuringRun != nil {
		s.testDuringRun(j)
	}
	return s.execute(ctx, c, j.broker)
}

// clearInflight removes a settled job from the single-flight index (only
// if it still owns its key — a later identical submission may have
// re-registered it).
func (s *Server) clearInflight(j *Job) {
	s.mu.Lock()
	if s.inflight[j.Key] == j {
		delete(s.inflight, j.Key)
	}
	s.mu.Unlock()
}

// Shutdown drains gracefully: stop accepting jobs, let workers finish
// everything queued and running, and if the context expires first cancel
// the remaining work so jobs fail fast instead of hanging. Returns nil on
// a clean drain, the context error otherwise.
func (s *Server) Shutdown(ctx context.Context) error {
	s.mu.Lock()
	if s.draining {
		s.mu.Unlock()
		return nil
	}
	s.draining = true
	s.mu.Unlock()
	close(s.quit)

	done := make(chan struct{})
	go func() {
		s.wg.Wait()
		close(done)
	}()
	select {
	case <-done:
		s.closePersistence()
		return nil
	case <-ctx.Done():
		s.runCancel() // abort in-flight cells; workers then settle quickly
		<-done
		s.closePersistence()
		return ctx.Err()
	}
}

// RunsTotal reports how many underlying simulation executions have
// started (exported for the single-flight acceptance test and smoke
// tool assertions; the same number is in /metrics as slipd_runs_total).
func (s *Server) RunsTotal() uint64 { return s.metrics.runs.Load() }

func writeJSON(w http.ResponseWriter, status int, v any) {
	w.Header().Set("Content-Type", "application/json")
	w.WriteHeader(status)
	json.NewEncoder(w).Encode(v)
}

func httpError(w http.ResponseWriter, status int, err error) {
	writeJSON(w, status, map[string]string{"error": err.Error()})
}
