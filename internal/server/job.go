package server

import (
	"context"
	"sync"
	"time"
)

// State is a job's lifecycle position. queued → running → done|failed;
// a queued job cancelled before a worker picks it up goes straight to
// failed.
type State string

// Job states.
const (
	StateQueued  State = "queued"
	StateRunning State = "running"
	StateDone    State = "done"
	StateFailed  State = "failed"
)

// Job is one submitted simulation job. All mutable fields are guarded by
// mu; the done channel closes exactly once when the job reaches a
// terminal state, which is what waiters (HTTP result polls, Shutdown,
// tests) select on.
type Job struct {
	ID  string
	Key string // cache key (sha256 hex)

	// Admission identity, immutable after registration: the tenant the
	// job queues under, its priority class, and — for campaign cells —
	// the campaign and cell it executes.
	tenant   string
	priority int
	campaign string
	cell     string

	mu       sync.Mutex
	spec     JobSpec // normalized
	state    State
	errMsg   string
	cached   bool // result served from cache without a run
	attempts int  // times handed to the queue (1 on first submission)
	restored bool // rehydrated from the journal at startup
	created  time.Time
	started  time.Time
	finished time.Time
	result   []byte
	cancel   context.CancelFunc // non-nil while running

	broker *broker
	done   chan struct{}
}

func newJob(id, key string, spec JobSpec, state State) *Job {
	return &Job{
		ID:       id,
		Key:      key,
		spec:     spec,
		state:    state,
		attempts: 1,
		created:  time.Now(),
		broker:   newBroker(),
		done:     make(chan struct{}),
	}
}

// snapshot returns a consistent copy of the mutable state.
func (j *Job) snapshot() JobView {
	j.mu.Lock()
	defer j.mu.Unlock()
	v := JobView{
		ID:       j.ID,
		Key:      j.Key,
		State:    j.state,
		Error:    j.errMsg,
		Cached:   j.cached,
		Attempts: j.attempts,
		Restored: j.restored,
		Created:  j.created,
		Spec:     j.spec,
		Tenant:   j.tenant,
		Campaign: j.campaign,
		Cell:     j.cell,
	}
	if !j.started.IsZero() {
		t := j.started
		v.Started = &t
	}
	if !j.finished.IsZero() {
		t := j.finished
		v.Finished = &t
	}
	return v
}

// tryStart moves queued → running and installs the cancel hook; it
// refuses if the job left the queued state (e.g. cancelled while
// waiting).
func (j *Job) tryStart(cancel context.CancelFunc) bool {
	j.mu.Lock()
	defer j.mu.Unlock()
	if j.state != StateQueued {
		return false
	}
	j.state = StateRunning
	j.started = time.Now()
	j.cancel = cancel
	return true
}

// finish moves the job to a terminal state. It is a no-op if the job
// already terminated (a cancelled queued job may race its worker).
func (j *Job) finish(result []byte, errMsg string) bool {
	j.mu.Lock()
	defer j.mu.Unlock()
	if j.state == StateDone || j.state == StateFailed {
		return false
	}
	if errMsg == "" {
		j.state = StateDone
		j.result = result
	} else {
		j.state = StateFailed
		j.errMsg = errMsg
	}
	j.finished = time.Now()
	j.cancel = nil
	close(j.done)
	return true
}

// abort cancels the job: queued jobs fail immediately, running jobs get
// their context cancelled (the runner aborts remaining cells and the
// worker then fails the job). Terminal jobs are left alone. It reports
// the state the job was in and whether the cancel took.
func (j *Job) abort(reason string) (State, bool) {
	j.mu.Lock()
	if j.state == StateQueued {
		j.state = StateFailed
		j.errMsg = reason
		j.finished = time.Now()
		close(j.done)
		j.mu.Unlock()
		return StateQueued, true
	}
	if j.state == StateRunning && j.cancel != nil {
		cancel := j.cancel
		j.mu.Unlock()
		cancel()
		return StateRunning, true
	}
	st := j.state
	j.mu.Unlock()
	return st, false
}

// stateNow reads the current state.
func (j *Job) stateNow() State {
	j.mu.Lock()
	defer j.mu.Unlock()
	return j.state
}

// resultBytes returns the result if the job is done.
func (j *Job) resultBytes() ([]byte, bool) {
	j.mu.Lock()
	defer j.mu.Unlock()
	if j.state != StateDone {
		return nil, false
	}
	return j.result, true
}

// JobView is the JSON shape of a job in API responses.
type JobView struct {
	ID       string     `json:"id"`
	State    State      `json:"state"`
	Key      string     `json:"key"`
	Cached   bool       `json:"cached"`
	Attempts int        `json:"attempts"`
	Restored bool       `json:"restored,omitempty"`
	Tenant   string     `json:"tenant,omitempty"`
	Campaign string     `json:"campaign,omitempty"`
	Cell     string     `json:"cell,omitempty"`
	Error    string     `json:"error,omitempty"`
	Created  time.Time  `json:"created"`
	Started  *time.Time `json:"started,omitempty"`
	Finished *time.Time `json:"finished,omitempty"`
	Spec     JobSpec    `json:"spec"`
}
