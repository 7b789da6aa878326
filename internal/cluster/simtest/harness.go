// Package simtest is a FoundationDB-style in-process cluster simulation
// harness: N coordinators and M workers run the real cluster code —
// real ClaimTables, real replication, real claimers — over the seeded
// netchaos fabric, while a scripted client submits jobs and an
// invariant checker watches the claim tables. Crashes, restarts,
// partitions, message loss, duplication and clock skew all derive from
// one seed, so any failing schedule replays exactly from its seed
// alone.
package simtest

import (
	"bytes"
	"context"
	"crypto/sha256"
	"encoding/hex"
	"encoding/json"
	"errors"
	"fmt"
	"io"
	"os"
	"path/filepath"
	"sync"
	"sync/atomic"
	"time"

	"repro/internal/cluster"
	"repro/internal/cluster/netchaos"
	"repro/internal/faults/splitmix"
	"repro/internal/server"
	"repro/internal/store"
)

// Harness timing constants. The cluster's real defaults are seconds;
// the harness compresses them ~100× so a whole schedule — including
// lease expiries and liveness verdicts — fits in well under a second of
// wall clock. A worker rotating over three coordinators is seen by each
// every 3 × simClaimWait, well inside simLease.
const (
	simLease       = 120 * time.Millisecond
	simClaimWait   = 25 * time.Millisecond
	simMaxAttempts = 50 // generous: budget exhaustion must never be a legitimate outcome in a schedule
)

// Options configures one simulated schedule.
type Options struct {
	// Seed drives everything: the chaos plan, the schedule (crash times,
	// partitions, submission order) and per-node clock skew.
	Seed uint64
	// Coordinators and Workers size the cluster (defaults 3 and 3).
	Coordinators int
	Workers      int
	// Jobs is how many distinct jobs the scripted client submits
	// (default 10).
	Jobs int
	// Chaos is the network fault mix. The zero value takes DefaultChaos;
	// its Seed field is always overridden by Seed above. Set NoChaos for
	// a quiet network (the baseline schedules).
	Chaos   netchaos.Spec
	NoChaos bool
	// Horizon is the scripted portion's duration (default 400ms); after
	// it the harness heals, quiesces, restarts everything crashed, and
	// waits up to SettleTimeout (default 15s) for convergence.
	Horizon       time.Duration
	SettleTimeout time.Duration
	// PinToFirst pins workers and the client to coordinator 0, so every
	// other coordinator learns claim state through replication alone.
	// Converging under this topology is the pure-replication test.
	PinToFirst bool
	// MutateMerge runs the deliberately-broken build: PinToFirst plus
	// every other coordinator's merge drops incoming terminal records.
	// The invariant checker must flag the divergence — this is how the
	// checker itself is tested.
	MutateMerge bool
	// Logf receives harness progress lines (default: discard).
	Logf func(format string, args ...any)
}

func (o Options) withDefaults() Options {
	if o.Coordinators <= 0 {
		o.Coordinators = 3
	}
	if o.Workers <= 0 {
		o.Workers = 3
	}
	if o.Jobs <= 0 {
		o.Jobs = 10
	}
	if o.Horizon <= 0 {
		o.Horizon = 400 * time.Millisecond
	}
	if o.SettleTimeout <= 0 {
		o.SettleTimeout = 15 * time.Second
	}
	if !o.NoChaos && !o.Chaos.Active() && o.Chaos.SkewMax == 0 {
		o.Chaos = DefaultChaos()
	}
	if o.NoChaos {
		o.Chaos = netchaos.Spec{}
	}
	o.Chaos.Seed = o.Seed
	if o.MutateMerge {
		o.PinToFirst = true
	}
	if o.Logf == nil {
		o.Logf = func(string, ...any) {}
	}
	return o
}

// DefaultChaos is the fault mix sim schedules run under unless
// overridden: light loss and duplication, moderate delay, and clock
// skew safely below the lease/renewal margin.
func DefaultChaos() netchaos.Spec {
	return netchaos.Spec{
		Drop:     0.05,
		Delay:    0.15,
		DelayMin: time.Millisecond,
		DelayMax: 8 * time.Millisecond,
		Dup:      0.03,
		Reorder:  0.03,
		SkewMax:  20 * time.Millisecond,
	}
}

// Report is one schedule's outcome.
type Report struct {
	Seed       uint64
	Violations []string
	Submitted  int
	// ChaosInjected counts manufactured network faults; Granted,
	// Expirations and Duplicates aggregate the coordinators' claim
	// counters — evidence the schedule actually exercised the recovery
	// machinery.
	ChaosInjected uint64
	Granted       uint64
	Expirations   uint64
	Duplicates    uint64
	// Fallbacks counts Dispatch calls that returned server.ErrNoWorkers:
	// the coordinator judged no worker live. On a quiet network every
	// worker keeps polling, so any fallback there is a liveness misjudgment.
	Fallbacks uint64
}

// OK reports whether every invariant held.
func (r Report) OK() bool { return len(r.Violations) == 0 }

// keyOf is the harness's cache-key function: hex sha256 of the
// normalized spec JSON, matching the coordinator grant's key so the
// claimer's version-skew check passes.
func keyOf(specJSON []byte) (string, error) {
	sum := sha256.Sum256(specJSON)
	return hex.EncodeToString(sum[:]), nil
}

// render is the deterministic "simulation": the result bytes any
// worker, anywhere, must produce for a spec. It doubles as the oracle —
// the chaos-free reference is computable without running anything.
func render(specJSON []byte) []byte {
	sum := sha256.Sum256(append([]byte("simresult|"), specJSON...))
	return []byte("simresult:" + hex.EncodeToString(sum[:]))
}

// memSink collects settled result bytes per coordinator, standing in
// for the server's content-addressed store. Like the real store it
// survives that coordinator's restarts.
type memSink struct {
	mu sync.Mutex
	m  map[string][]byte
}

func newMemSink() *memSink { return &memSink{m: map[string][]byte{}} }

func (s *memSink) StoreResult(key string, result []byte) error {
	s.mu.Lock()
	defer s.mu.Unlock()
	s.m[key] = append([]byte(nil), result...)
	return nil
}

func (s *memSink) get(key string) ([]byte, bool) {
	s.mu.Lock()
	defer s.mu.Unlock()
	b, ok := s.m[key]
	return b, ok
}

// LoadResult implements cluster.ResultSource, so restarted harness
// coordinators rehydrate replayed done entries exactly like production
// (whose payloads live in the server's content-addressed store).
func (s *memSink) LoadResult(key string) ([]byte, bool) { return s.get(key) }

// coordNode is one coordinator identity across its crashes and
// restarts: the journal dir, result sink and name persist; the
// Coordinator instance and its epoch change on every restart.
type coordNode struct {
	h    *harness
	idx  int
	name string
	dir  string
	sink *memSink

	mu     sync.Mutex
	co     *cluster.Coordinator
	alive  bool
	epoch  int
	ctx    context.Context // cancelled when this epoch crashes
	cancel context.CancelFunc
}

func (n *coordNode) start() error {
	jn, recs, err := store.Open(n.dir, 0)
	if err != nil {
		return fmt.Errorf("coordinator %s journal: %w", n.name, err)
	}
	var peers []string
	for _, p := range n.h.coords {
		if p.name != n.name {
			peers = append(peers, n.h.net.URL(p.name))
		}
	}
	name := n.name
	co := cluster.NewCoordinator(cluster.Config{
		LeaseDuration:            simLease,
		ClaimWait:                simClaimWait,
		MaxAttempts:              simMaxAttempts,
		Peers:                    peers,
		SelfID:                   name,
		Journal:                  jn,
		Replay:                   recs,
		HTTPClient:               n.h.net.Client(name),
		Now:                      n.h.net.Chaos().Clock(name),
		DisableMergeTerminalWins: n.h.opts.MutateMerge && n.idx > 0,
		Logf: func(format string, args ...any) {
			n.h.opts.Logf("["+name+"] "+format, args...)
		},
	})
	co.AttachResults(n.sink)
	ctx, cancel := context.WithCancel(context.Background())
	n.mu.Lock()
	n.co = co
	n.alive = true
	n.epoch++
	n.ctx = ctx
	n.cancel = cancel
	n.mu.Unlock()
	n.h.net.Register(n.name, co.Handler())
	return nil
}

// crash tears the coordinator down abruptly as seen by the rest of the
// cluster: its node vanishes from the fabric first, then in-flight
// dispatches bound to this epoch are cancelled and the instance closed
// (which also closes the journal so a restart can reopen it).
func (n *coordNode) crash() {
	n.mu.Lock()
	if !n.alive {
		n.mu.Unlock()
		return
	}
	co, cancel := n.co, n.cancel
	n.alive = false
	n.co = nil
	n.mu.Unlock()
	n.h.net.Deregister(n.name)
	cancel()
	co.Close()
}

// snapshot returns the live instance (nil when down) with its epoch.
func (n *coordNode) snapshot() (*cluster.Coordinator, context.Context, int, bool) {
	n.mu.Lock()
	defer n.mu.Unlock()
	return n.co, n.ctx, n.epoch, n.alive
}

// workerNode is one worker: its claim loop, which is also its only
// liveness signal. A crash flips the crashed flag — the Run callback
// then abandons every claim, so leases expire exactly as they would for
// a dead process — and stops the loop in the background.
type workerNode struct {
	h       *harness
	name    string
	crashed atomic.Bool
	claimer *cluster.Claimer
	stopWG  sync.WaitGroup
}

func (h *harness) startWorker(name string) *workerNode {
	w := &workerNode{h: h, name: name}
	client := h.net.Client(name)
	w.claimer = cluster.StartClaimer(cluster.ClaimerConfig{
		Coordinators: h.joinURLs(),
		ID:           name,
		Slots:        2,
		KeyFor:       keyOf,
		Run: func(ctx context.Context, specJSON []byte) ([]byte, error) {
			if w.crashed.Load() {
				return nil, cluster.ErrClaimAbandoned
			}
			// A sliver of real work keeps leases honest: claims overlap
			// with renewals, crashes land mid-run.
			time.Sleep(2 * time.Millisecond)
			if w.crashed.Load() {
				return nil, cluster.ErrClaimAbandoned
			}
			return render(specJSON), nil
		},
		PollWait:   simClaimWait,
		HTTPClient: client,
		Logf: func(format string, args ...any) {
			h.opts.Logf("["+name+"] "+format, args...)
		},
	})
	return w
}

// crash marks the worker dead. Goroutines can't be killed, so death is
// emulated at the semantics level: every claim it holds or wins from
// here on is abandoned (no report, lease expires) and its loop stops in
// the background.
func (w *workerNode) crash() {
	if w.crashed.Swap(true) {
		return
	}
	w.stopWG.Add(1)
	go func() {
		defer w.stopWG.Done()
		w.claimer.Stop()
	}()
}

// stop shuts the worker down cleanly (teardown, not crash semantics).
func (w *workerNode) stop() {
	if !w.crashed.Swap(true) {
		w.claimer.Stop()
	}
	w.stopWG.Wait()
}

type harness struct {
	opts Options
	net  *netchaos.Network
	dir  string
	str  *splitmix.Stream // schedule stream, decorrelated from the chaos stream

	specs []server.JobSpec
	keys  []string
	ref   map[string][]byte

	coords  []*coordNode
	workers []*workerNode
	retired []*workerNode // crashed workers replaced at settle; drained at teardown

	fallbacks atomic.Uint64 // Dispatch calls answered server.ErrNoWorkers

	mu         sync.Mutex
	violations []string
}

func (h *harness) violate(format string, args ...any) {
	h.mu.Lock()
	h.violations = append(h.violations, fmt.Sprintf(format, args...))
	h.mu.Unlock()
}

// joinURLs is the coordinator list workers claim from: everyone, or
// only coordinator 0 under PinToFirst and the merge mutation (so the
// mutated peers can learn results through replication alone — the
// topology that exposes a broken merge instead of letting re-claims
// paper over it).
func (h *harness) joinURLs() []string {
	if h.opts.PinToFirst {
		return []string{h.net.URL(h.coords[0].name)}
	}
	urls := make([]string, len(h.coords))
	for i, n := range h.coords {
		urls[i] = h.net.URL(n.name)
	}
	return urls
}

// Run executes one seeded schedule end to end and reports every
// invariant violation it observed. Setup failures (disk, config) come
// back as the error; violations are data, not errors.
func Run(opts Options) (Report, error) {
	opts = opts.withDefaults()
	h := &harness{
		opts: opts,
		str:  splitmix.NewStream(splitmix.Mix64(opts.Seed ^ 0x5c4ed01e0f5eedf1)),
		ref:  map[string][]byte{},
	}
	rep := Report{Seed: opts.Seed, Submitted: opts.Jobs}

	dir, err := os.MkdirTemp("", "simtest-*")
	if err != nil {
		return rep, err
	}
	h.dir = dir
	defer os.RemoveAll(dir)

	net, err := netchaos.NewNetwork(opts.Chaos)
	if err != nil {
		return rep, err
	}
	h.net = net

	// Job corpus and its oracle. Specs only need distinct, stable JSON;
	// the key and reference bytes derive from the normalized encoding
	// exactly as Dispatch produces it.
	for i := 0; i < opts.Jobs; i++ {
		spec := server.JobSpec{Kind: "run", Kernel: "CG", Tokens: i + 1}
		specJSON, err := json.Marshal(spec)
		if err != nil {
			return rep, fmt.Errorf("marshal sim spec: %w", err)
		}
		key, _ := keyOf(specJSON)
		h.specs = append(h.specs, spec)
		h.keys = append(h.keys, key)
		h.ref[key] = render(specJSON)
	}

	for i := 0; i < opts.Coordinators; i++ {
		n := &coordNode{
			h:    h,
			idx:  i,
			name: fmt.Sprintf("c%d", i),
			sink: newMemSink(),
		}
		n.dir = filepath.Join(dir, n.name)
		h.coords = append(h.coords, n)
	}
	for _, n := range h.coords {
		if err := n.start(); err != nil {
			return rep, err
		}
	}
	for i := 0; i < opts.Workers; i++ {
		h.workers = append(h.workers, h.startWorker(fmt.Sprintf("w%d", i)))
	}
	// Workers enroll on their first claim poll; submitting before then
	// would measure start-up, not liveness.
	h.awaitEnrollment()

	// Invariant monitor: watches attempt monotonicity and the budget on
	// every live coordinator throughout the schedule.
	monStop := make(chan struct{})
	var monWG sync.WaitGroup
	monWG.Add(1)
	go h.monitor(monStop, &monWG)

	// The scripted portion.
	var clientWG sync.WaitGroup
	h.runSchedule(&clientWG)

	// Settle: stop the weather, resurrect everything, wait for the
	// cluster to converge, then check the invariants that only make
	// sense at rest.
	h.settle(&clientWG)
	close(monStop)
	monWG.Wait()
	h.checkConverged()

	// Teardown and aggregate counters.
	for _, w := range h.workers {
		w.stop()
	}
	for _, w := range h.retired {
		w.stopWG.Wait()
	}
	for _, n := range h.coords {
		co, _, _, alive := n.snapshot()
		if alive {
			ctr := co.ClaimCounters()
			rep.Granted += ctr.Granted
			rep.Expirations += ctr.Expirations
			rep.Duplicates += ctr.Duplicate
		}
		n.crash()
	}
	rep.ChaosInjected = h.net.Chaos().Counters().Total()
	rep.Fallbacks = h.fallbacks.Load()

	h.mu.Lock()
	rep.Violations = append(rep.Violations, h.violations...)
	h.mu.Unlock()
	return rep, nil
}

// submit is one scripted client call: dispatch the job on a live
// coordinator, fail over to the next on crash or transport trouble, and
// check the returned bytes against the oracle. ErrNoWorkers mirrors
// production: the server would execute locally in degraded mode, and
// determinism makes that result the oracle's by construction.
func (h *harness) submit(job, firstCo int, deadline time.Time) {
	key, spec := h.keys[job], h.specs[job]
	want := h.ref[key]
	coIdx := firstCo
	for time.Now().Before(deadline) {
		if h.opts.PinToFirst {
			coIdx = 0
		}
		node := h.coords[coIdx%len(h.coords)]
		coIdx++
		co, ctx, _, alive := node.snapshot()
		if !alive {
			time.Sleep(2 * time.Millisecond)
			continue
		}
		result, err := co.Dispatch(ctx, key, "sim", "default", 0, spec, io.Discard)
		switch {
		case err == nil:
			if !bytes.Equal(result, want) {
				h.violate("job %d: dispatched result diverged from the chaos-free reference (%d bytes vs %d)", job, len(result), len(want))
			}
			return
		case errors.Is(err, server.ErrNoWorkers):
			h.fallbacks.Add(1)
			return // degraded-mode local execution; render(spec) == want by construction
		case errors.Is(err, context.Canceled):
			// Coordinator crashed mid-dispatch; fail over.
		default:
			// A terminal failure. With simMaxAttempts headroom and a Run
			// that only succeeds or abandons, no schedule can produce one
			// legitimately.
			h.violate("job %d: settled failed: %v", job, err)
			return
		}
		time.Sleep(2 * time.Millisecond)
	}
	h.violate("job %d: no terminal outcome before the settle deadline", job)
}

// awaitEnrollment waits until every coordinator a worker claims from
// lists every worker live. Not enrolling within SettleTimeout is a
// violation: nothing can have stopped the first poll.
func (h *harness) awaitEnrollment() {
	joined := h.coords
	if h.opts.PinToFirst {
		joined = joined[:1]
	}
	deadline := time.Now().Add(h.opts.SettleTimeout)
	for _, n := range joined {
		for {
			co, _, _, _ := n.snapshot()
			live := co.Stats().Live
			if live == len(h.workers) {
				break
			}
			if time.Now().After(deadline) {
				h.violate("%s lists %d of %d workers live before the schedule starts", n.name, live, len(h.workers))
				return
			}
			time.Sleep(time.Millisecond)
		}
	}
}
