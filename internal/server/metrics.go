package server

import (
	"bufio"
	"fmt"
	"io"
	"math"
	"sort"
	"strings"
	"sync"
	"sync/atomic"
	"time"
)

// Live metrics in the Prometheus text exposition format, hand-rolled so
// the repository stays dependency-free. Everything is exported under the
// slipd_ prefix: event counters, job state gauges, queue depth, cache
// counters/ratio, fleet, tenant and campaign state, and per-label
// host-side run latency histograms (the label is the kernel for single
// runs and the suite kind otherwise). Counters are incremented where
// their event happens; everything else is read from the state the
// server already owns when /metrics is scraped.

// latencyBuckets are the histogram upper bounds in seconds. Simulated
// kernels at test scale finish in milliseconds; paper-scale suites take
// minutes — the buckets cover both ends.
var latencyBuckets = []float64{0.01, 0.05, 0.1, 0.25, 0.5, 1, 2.5, 5, 10, 30, 60, 120, 300}

type histogram struct {
	counts []uint64 // one per bucket, plus +Inf at the end
	sum    float64
	total  uint64
}

func (h *histogram) observe(v float64) {
	if h.counts == nil {
		h.counts = make([]uint64, len(latencyBuckets)+1)
	}
	i := sort.SearchFloat64s(latencyBuckets, v)
	h.counts[i]++
	h.sum += v
	h.total++
}

// metrics holds the event counters and the run-latency histograms.
type metrics struct {
	submitted   atomic.Uint64 // jobs registered by a submission (cache hits included)
	deduped     atomic.Uint64 // submissions coalesced onto an in-flight job
	runs        atomic.Uint64 // underlying simulation executions started
	shed        atomic.Uint64 // submissions 503'd because the queue was full
	panics      atomic.Uint64 // worker panics recovered (job failed, worker lived)
	timeouts    atomic.Uint64 // jobs failed by the per-job timeout
	faults      atomic.Uint64 // faults injected by fault-plan runs
	recoveries  atomic.Uint64 // divergence recoveries observed in fault-plan runs
	recovered   atomic.Uint64 // jobs rehydrated from the journal in a terminal state
	requeued    atomic.Uint64 // crash-interrupted jobs put back on the queue at startup
	retries     atomic.Uint64 // executions of a job beyond its first attempt
	journalErrs atomic.Uint64 // journal/store writes that failed (durability degraded)
	localFalls  atomic.Uint64 // jobs a coordinator executed locally for want of workers

	mu      sync.Mutex // guards latency
	latency map[string]*histogram
}

// observeLatency records a completed run's host wall-clock under a label.
func (m *metrics) observeLatency(label string, d time.Duration) {
	m.mu.Lock()
	defer m.mu.Unlock()
	h, ok := m.latency[label]
	if !ok {
		h = &histogram{}
		m.latency[label] = h
	}
	h.observe(d.Seconds())
}

// family is one metric family of the exposition; sample one line of it.
type family struct {
	name, help, typ string
	samples         []sample
}

type sample struct {
	suffix string   // appended to the family name (histogram series)
	labels []string // name, value, name, value, ...
	value  string
}

func counter(name, help string, samples ...sample) family {
	return family{name, help, "counter", samples}
}

func gauge(name, help string, samples ...sample) family {
	return family{name, help, "gauge", samples}
}

// num is an integer sample, ratio a fraction printed to four places.
func num[T int | int64 | uint64](v T, labels ...string) sample {
	return sample{labels: labels, value: fmt.Sprint(v)}
}

func ratio(v float64, labels ...string) sample {
	return sample{labels: labels, value: fmt.Sprintf("%.4f", v)}
}

// breakerValue maps a PeerStatus.Breaker name onto the gauge scale
// (0 closed, 1 half-open, 2 open).
func breakerValue(name string) int {
	switch name {
	case "open":
		return 2
	case "half-open":
		return 1
	default:
		return 0
	}
}

// families builds the exposition table. Families appear in a fixed
// order; fleet, tenant and campaign families only once there is
// something to report.
func (s *Server) families() []family {
	m := s.metrics
	var journalBytes int64
	var storeHits, storeMisses uint64
	if s.journal != nil {
		journalBytes = s.journal.Size()
	}
	if s.store != nil {
		storeHits, storeMisses = s.store.Stats()
	}
	fams := []family{
		counter("slipd_jobs_submitted_total", "Jobs accepted via POST /jobs.", num(m.submitted.Load())),
		counter("slipd_jobs_deduplicated_total", "Submissions coalesced onto an in-flight identical job.", num(m.deduped.Load())),
		counter("slipd_runs_total", "Underlying simulation executions (cache misses that ran).", num(m.runs.Load())),
		counter("slipd_requests_shed_total", "Submissions rejected 503 because the job queue was full.", num(m.shed.Load())),
		counter("slipd_panics_total", "Worker panics recovered (the job failed; the worker survived).", num(m.panics.Load())),
		counter("slipd_timeouts_total", "Jobs failed by the per-job timeout.", num(m.timeouts.Load())),
		counter("slipd_faults_injected_total", "Faults injected by fault-plan and chaos runs.", num(m.faults.Load())),
		counter("slipd_recoveries_total", "Slipstream divergence recoveries observed in fault-plan and chaos runs.", num(m.recoveries.Load())),
		counter("slipd_jobs_recovered_total", "Jobs rehydrated from the journal in a terminal state at startup.", num(m.recovered.Load())),
		counter("slipd_jobs_requeued_total", "Crash-interrupted jobs put back on the queue at startup.", num(m.requeued.Load())),
		counter("slipd_retries_total", "Executions of a job beyond its first attempt.", num(m.retries.Load())),
		counter("slipd_journal_errors_total", "Failed journal or result-store writes (durability degraded).", num(m.journalErrs.Load())),
		gauge("slipd_journal_bytes", "On-disk size of the write-ahead job journal.", num(journalBytes)),
		counter("slipd_store_hits_total", "Disk result-store hits (reads served without a run).", num(storeHits)),
		counter("slipd_store_misses_total", "Disk result-store misses.", num(storeMisses)),
	}

	if cs := s.clusterStats(); cs != nil {
		fams = append(fams,
			gauge("slipd_workers", "Fleet workers by liveness, judged from claim polls, lease renewals and reports.",
				num(cs.Live, "state", "live"), num(cs.Dead, "state", "dead")),
			counter("slipd_claims_total", "Claim-table outcomes: leases granted, claims settled done/failed, duplicate terminal reports discarded.",
				num(cs.ClaimsGranted, "outcome", "granted"), num(cs.ClaimsCompleted, "outcome", "done"),
				num(cs.ClaimsFailed, "outcome", "failed"), num(cs.ClaimsDuplicate, "outcome", "duplicate")),
			counter("slipd_lease_expirations_total", "Claim leases that expired and went back to pending for reclaim.", num(cs.LeaseExpirations)),
			counter("slipd_local_fallbacks_total", "Jobs the coordinator executed in-process because no worker could take them.", num(m.localFalls.Load())),
		)
		if len(cs.Peers) > 0 {
			var breakers []sample
			for _, p := range cs.Peers {
				breakers = append(breakers, num(breakerValue(p.Breaker), "peer", p.URL))
			}
			fams = append(fams, gauge("slipd_breaker_state", "Replication circuit breaker per peer (0 closed, 1 half-open, 2 open).", breakers...))
		}
	}

	// Job states are counted from the jobs themselves, taking s.mu then
	// each j.mu as handleList does, so they always agree with GET /jobs.
	byState := map[State]int{}
	s.mu.Lock()
	for _, j := range s.jobs {
		byState[j.stateNow()]++
	}
	s.mu.Unlock()
	var jobs []sample
	for _, st := range []State{StateQueued, StateRunning, StateDone, StateFailed} {
		jobs = append(jobs, num(byState[st], "state", string(st)))
	}
	cache := s.cache.Stats()
	fams = append(fams,
		gauge("slipd_jobs", "Jobs currently in each state.", jobs...),
		gauge("slipd_queue_depth", "Jobs waiting for a worker.", num(s.sched.depth())),
		counter("slipd_cache_hits_total", "Result cache hits.", num(cache.Hits)),
		counter("slipd_cache_misses_total", "Result cache misses.", num(cache.Misses)),
		counter("slipd_cache_evictions_total", "Entries evicted to hold the byte budget.", num(cache.Evictions)),
		gauge("slipd_cache_bytes", "Bytes currently cached.", num(cache.Bytes)),
		gauge("slipd_cache_entries", "Entries currently cached.", num(cache.Entries)),
		gauge("slipd_cache_hit_ratio", "Hits over lookups since start.", ratio(cache.HitRatio())),
	)

	// Tenant families: admission-control outcomes and fair-queue state,
	// in tenant-name order.
	if tenants := s.sched.stats(); len(tenants) > 0 {
		var weight, queued, admitted, limited, dispatched []sample
		for _, t := range tenants {
			weight = append(weight, num(t.Weight, "tenant", t.Name))
			queued = append(queued, num(t.Queued, "tenant", t.Name))
			admitted = append(admitted, num(t.Admitted, "tenant", t.Name))
			limited = append(limited,
				num(t.LimitedRate, "tenant", t.Name, "reason", "rate"),
				num(t.LimitedBacklog, "tenant", t.Name, "reason", "backlog"))
			dispatched = append(dispatched, num(t.Dispatched, "tenant", t.Name))
		}
		fams = append(fams,
			gauge("slipd_tenant_weight", "Weighted-fair-queueing weight per tenant.", weight...),
			gauge("slipd_tenant_queued", "Jobs a tenant currently has waiting in the fair queue.", queued...),
			counter("slipd_tenant_admitted_total", "Submissions admitted past a tenant's token bucket and backlog bound.", admitted...),
			counter("slipd_tenant_limited_total", "Submissions refused 429 per tenant, by admission check.", limited...),
			counter("slipd_tenant_dispatched_total", "Jobs handed to workers per tenant by the fair scheduler.", dispatched...),
		)
	}

	// Campaign families: DAG totals by state, cell outcomes, and the
	// per-campaign cache-collapse ratio, in creation order.
	s.campMu.Lock()
	camps := make([]*campaign, 0, len(s.campOrder))
	for _, id := range s.campOrder {
		camps = append(camps, s.campaigns[id])
	}
	s.campMu.Unlock()
	if len(camps) > 0 {
		campsByState := map[string]int{}
		var done, failed, skipped, collapsed int
		var ratios []sample
		for _, c := range camps {
			c.mu.Lock()
			campsByState[c.state]++
			done += c.done
			failed += c.failed
			skipped += c.skipped
			collapsed += c.collapsed
			r := 0.0
			if len(c.order) > 0 {
				r = float64(c.collapsed) / float64(len(c.order))
			}
			ratios = append(ratios, ratio(r, "campaign", c.ID))
			c.mu.Unlock()
		}
		var states []sample
		for _, st := range []string{campaignRunning, campaignDone, campaignFailed, campaignCancelled} {
			states = append(states, num(campsByState[st], "state", st))
		}
		fams = append(fams,
			gauge("slipd_campaigns", "Campaigns by state.", states...),
			counter("slipd_campaign_cells_total", "Campaign cells settled, by outcome (collapsed counts done cells served by cache or dedup).",
				num(done, "outcome", "done"), num(failed, "outcome", "failed"),
				num(skipped, "outcome", "skipped"), num(collapsed, "outcome", "collapsed")),
			gauge("slipd_campaign_cache_collapse_ratio", "Fraction of a campaign's cells served without a fresh run.", ratios...),
		)
	}

	return append(fams, m.latencyFamily())
}

// latencyFamily renders the run-latency histograms, labels sorted.
func (m *metrics) latencyFamily() family {
	f := family{name: "slipd_run_seconds", help: "Host wall-clock of completed runs by kernel or suite kind.", typ: "histogram"}
	m.mu.Lock()
	defer m.mu.Unlock()
	labels := make([]string, 0, len(m.latency))
	for l := range m.latency {
		labels = append(labels, l)
	}
	sort.Strings(labels)
	for _, l := range labels {
		h := m.latency[l]
		cum := uint64(0)
		for i, le := range latencyBuckets {
			cum += h.counts[i]
			f.samples = append(f.samples, sample{"_bucket", []string{"job", l, "le", formatLE(le)}, fmt.Sprint(cum)})
		}
		cum += h.counts[len(latencyBuckets)]
		f.samples = append(f.samples,
			sample{"_bucket", []string{"job", l, "le", "+Inf"}, fmt.Sprint(cum)},
			sample{"_sum", []string{"job", l}, fmt.Sprintf("%g", h.sum)},
			sample{"_count", []string{"job", l}, fmt.Sprint(h.total)})
	}
	return f
}

// labelEscaper escapes a label value the way the text format defines:
// backslash, double quote and newline are the only escapes it has.
var labelEscaper = strings.NewReplacer(`\`, `\\`, `"`, `\"`, "\n", `\n`)

// writeExposition writes every family: HELP and TYPE lines, then one
// line per sample. Label values are escaped and made valid UTF-8, since
// some (tenant names from unrecognized API keys) come from clients.
func writeExposition(w io.Writer, fams []family) error {
	bw := bufio.NewWriter(w)
	for _, f := range fams {
		fmt.Fprintf(bw, "# HELP %s %s\n# TYPE %s %s\n", f.name, f.help, f.name, f.typ)
		for _, smp := range f.samples {
			bw.WriteString(f.name + smp.suffix)
			for i := 0; i < len(smp.labels); i += 2 {
				if i == 0 {
					bw.WriteByte('{')
				} else {
					bw.WriteByte(',')
				}
				bw.WriteString(smp.labels[i] + `="`)
				labelEscaper.WriteString(bw, strings.ToValidUTF8(smp.labels[i+1], "\uFFFD"))
				bw.WriteByte('"')
			}
			if len(smp.labels) > 0 {
				bw.WriteByte('}')
			}
			bw.WriteString(" " + smp.value + "\n")
		}
	}
	return bw.Flush()
}

// formatLE renders a bucket bound the way Prometheus expects (no
// scientific notation, no trailing zeros).
func formatLE(v float64) string {
	if v == math.Trunc(v) {
		return fmt.Sprintf("%d", int64(v))
	}
	return fmt.Sprintf("%g", v)
}
