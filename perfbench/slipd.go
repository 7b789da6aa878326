package main

import (
	"context"
	"encoding/json"
	"errors"
	"fmt"
	"os"
	"path/filepath"
	"sync"
	"time"
)

const (
	// hitRate and missRate are the slipd workload's offered load. One miss
	// costs roughly 90 ms of CPU on a 2-core host, so misses keep about half
	// a core busy while hits need almost none.
	hitRate  = 100.0
	missRate = 6.0
	// lagLimit is how late the generator may run (p99) before a run is
	// marked invalid: past it the offered schedule was not the one intended.
	lagLimit = 100 * time.Millisecond
	// tourSecs is the length of the reduced fleet session a traced run of
	// another workload uses to cover the cluster layer.
	tourSecs = 3.0
)

// slipdTourSecs is the length of the reduced slipd session a traced run of
// another workload uses to cover the server and store layers: the time one
// block of misses takes at missRate, so that the daemon sees the slipd
// workload's offered rates, only for a shorter time.
func slipdTourSecs() float64 { return float64(blockSize(missNodes)) / missRate }

// digests are the committed result digests of the hot set and the fleet
// canary, keyed by runSpec.String().
func loadDigests(root string) (map[string]string, error) {
	b, err := os.ReadFile(filepath.Join(root, "perfbench", "testdata", "digests.json"))
	if err != nil {
		return nil, err
	}
	var d map[string]string
	return d, json.Unmarshal(b, &d)
}

// opRecord is one request of a service session. Each is written only by
// the goroutine that ran it and read after all have finished.
type opRecord struct {
	miss     bool
	due, end time.Time
	submitD  time.Duration
	fetchD   time.Duration
	err      error
	shed     bool
	view     *jobView  // traced misses: slipd's own timestamps
	notified time.Time // when the terminal SSE event arrived
}

func (o *opRecord) latency() float64 { return ms(o.end.Sub(o.due)) }

// okLatencies returns the latencies of the operations that succeeded.
func okLatencies(ops []opRecord) []float64 {
	var out []float64
	for i := range ops {
		if ops[i].err == nil {
			out = append(out, ops[i].latency())
		}
	}
	return out
}

// slipdOut is what one slipd session measured.
type slipdOut struct {
	setups        []setup
	hwm           float64
	cpu           float64 // slipd CPU seconds over the timed window
	start         time.Time
	ops           []opRecord
	lags          []float64
	before, after promSeries
}

// startReady starts one daemon and measures spawn → /readyz answering
// 200.
func startReady(e env, c clients, extra ...string) (*daemon, setup, error) {
	settleDisk(e.build)
	t0 := time.Now()
	d, err := startDaemon(e, extra...)
	if err != nil {
		return nil, setup{}, err
	}
	if err := d.waitReady(c.req, 30*time.Second); err != nil {
		d.kill()
		return nil, setup{}, err
	}
	wall := time.Since(t0).Seconds()
	cpu, err := cpuOf(d.cmd.Process.Pid)
	if err != nil {
		d.kill()
		return nil, setup{}, err
	}
	return d, setup{wall: wall, cpu: cpu}, nil
}

// warm runs spec to completion (untimed), checks it against its committed
// digest, and counts it as one operation.
func warm(r *result, c clients, base string, spec runSpec, digests map[string]string) {
	r.attempted++
	want, ok := digests[spec.String()]
	if !ok {
		r.fail(1, "no committed digest for %s", spec)
		return
	}
	sub, err := c.submit(base, spec.json())
	if err == nil && sub.Job.State != "done" {
		var state string
		ctx, cancel := context.WithTimeout(context.Background(), 2*time.Minute)
		state, _, err = c.awaitState(ctx, base, sub.Job.ID)
		cancel()
		if err == nil && state != "done" {
			err = fmt.Errorf("job %s ended %s", sub.Job.ID, state)
		}
	}
	var body []byte
	if err == nil {
		body, err = c.result(base, sub.Job.ID)
	}
	if err == nil {
		err = checkResult(body, want)
	}
	if err != nil {
		r.fail(1, "canary %s: %v", spec, err)
	}
}

// slipdSession runs the slipd workload for secs seconds against a fresh
// daemon and checks every answer into r.
func slipdSession(e env, r *result, secs float64, traced bool) (*slipdOut, error) {
	digests, err := loadDigests(e.root)
	if err != nil {
		return nil, err
	}
	c := newClients()
	defer c.close()
	out := &slipdOut{}
	var d *daemon
	for i := 0; i < setupRepeats; i++ {
		if d != nil {
			d.kill()
		}
		var s setup
		if d, s, err = startReady(e, c); err != nil {
			return nil, err
		}
		out.setups = append(out.setups, s)
	}
	defer d.stop()

	hot := hotSet()
	for _, s := range hot {
		warm(r, c, d.base, s, digests)
	}
	nHits, nMisses := loadCounts(secs)
	misses := specStream(e.seed, nMisses, missNodes)
	plan := schedule(e.seed, secs, nHits, nMisses, len(hot))
	if out.before, err = c.scrape(d.base); err != nil {
		return nil, err
	}
	cpu0, err := cpuOf(d.cmd.Process.Pid)
	if err != nil {
		return nil, err
	}

	out.ops = make([]opRecord, len(plan))
	out.lags = make([]float64, 0, len(plan))
	var wg sync.WaitGroup
	out.start = time.Now().Add(20 * time.Millisecond)
	for i, a := range plan {
		due := out.start.Add(a.due)
		time.Sleep(time.Until(due))
		out.lags = append(out.lags, ms(time.Since(due)))
		o := &out.ops[i]
		o.miss, o.due = a.miss, due
		wg.Add(1)
		go func(a arrival) {
			defer wg.Done()
			if a.miss {
				missOp(c, d.base, misses[a.spec], traced, o)
			} else {
				spec := hot[a.spec]
				hitOp(c, d.base, spec, digests[spec.String()], o)
			}
		}(a)
	}
	wg.Wait()
	cpu1, err := cpuOf(d.cmd.Process.Pid)
	if err != nil {
		return nil, err
	}
	out.cpu = cpu1 - cpu0

	if out.after, err = c.scrape(d.base); err != nil {
		return nil, err
	}
	if out.hwm, err = d.hwm(); err != nil {
		return nil, err
	}
	for i := range out.ops {
		o := &out.ops[i]
		r.attempted++
		if o.err != nil {
			kind := "hit"
			if o.miss {
				kind = "miss"
			}
			r.fail(1, "%s request: %v", kind, o.err)
		}
	}
	if lag := quantile(append([]float64(nil), out.lags...), 99); lag > ms(lagLimit) {
		r.invalid = fmt.Sprintf("load generator p99 lag %.1f ms exceeds %s", lag, lagLimit)
	}
	return out, nil
}

// hitOp submits a warmed spec, which slipd answers from its cache, and
// fetches the result.
func hitOp(c clients, base string, spec runSpec, want string, o *opRecord) {
	t := time.Now()
	sub, err := c.submit(base, spec.json())
	o.submitD = time.Since(t)
	if err == nil && (!sub.Cached || sub.Job.State != "done") {
		err = fmt.Errorf("hot spec %s was not answered from the cache (state %s)", spec, sub.Job.State)
	}
	if err == nil {
		t = time.Now()
		var body []byte
		body, err = c.result(base, sub.Job.ID)
		o.fetchD = time.Since(t)
		if err == nil {
			err = checkResult(body, want)
		}
	}
	o.end = time.Now()
	o.finish(err)
}

// missOp submits a spec slipd has never seen, waits for its terminal SSE
// state event (never by polling), and fetches the result.
func missOp(c clients, base string, spec runSpec, traced bool, o *opRecord) {
	t := time.Now()
	sub, err := c.submit(base, spec.json())
	o.submitD = time.Since(t)
	if err == nil && sub.Cached {
		err = fmt.Errorf("spec %s was unexpectedly cached", spec)
	}
	if err == nil && sub.Job.State != "done" {
		var state string
		ctx, cancel := context.WithTimeout(context.Background(), 2*time.Minute)
		state, o.notified, err = c.awaitState(ctx, base, sub.Job.ID)
		cancel()
		if err == nil && state != "done" {
			err = fmt.Errorf("job %s (%s) ended %s", sub.Job.ID, spec, state)
		}
	}
	var body []byte
	if err == nil {
		t = time.Now()
		body, err = c.result(base, sub.Job.ID)
		o.fetchD = time.Since(t)
	}
	if err == nil {
		err = checkResult(body, "")
	}
	o.end = time.Now()
	if err == nil && traced {
		// After the latency is taken: the job's own timestamps.
		if v, verr := c.view(base, sub.Job.ID); verr == nil && v.Started != nil && v.Finished != nil {
			o.view = &v
		}
	}
	o.finish(err)
}

func (o *opRecord) finish(err error) {
	o.err = err
	o.shed = errors.Is(err, errShed)
}

// latencies splits the session's op latencies by class.
func (s *slipdOut) latencies() (all, hits, misses []float64) {
	for i := range s.ops {
		o := &s.ops[i]
		if o.err != nil {
			continue
		}
		l := o.latency()
		all = append(all, l)
		if o.miss {
			misses = append(misses, l)
		} else {
			hits = append(hits, l)
		}
	}
	return all, hits, misses
}

// opsPerSec is completed operations per second of the window from the
// first due time to the last completion.
func opsPerSec(start time.Time, ops []opRecord) float64 {
	var last time.Time
	n := 0
	for i := range ops {
		if ops[i].err == nil {
			n++
			if ops[i].end.After(last) {
				last = ops[i].end
			}
		}
	}
	return ratio(float64(n), last.Sub(start).Seconds())
}

func meanOf(xs []float64) float64 {
	s := 0.0
	for _, x := range xs {
		s += x
	}
	return ratio(s, float64(len(xs)))
}

// pname formats a percentile for a metric name: 99 → "p99", 99.9 → "p99.9".
func pname(p float64) string { return fmt.Sprintf("p%g", p) }

func runSlipd(e env, traced bool) (*result, error) {
	r := newResult()
	r.stamp["scale"], r.stamp["nodes"] = "test", "2,4,8"
	r.stamp["hit_rate"], r.stamp["miss_rate"] = hitRate, missRate
	s, err := slipdSession(e, r, e.secs, false)
	if err != nil {
		return nil, err
	}
	all, hits, misses := s.latencies()
	if traced {
		ts, err := slipdSession(e, r, e.secs, true)
		if err != nil {
			return nil, err
		}
		r.metrics["trace.overhead_s"] = (meanOf(okLatencies(ts.ops)) - meanOf(all)) / 1000
		slipdLayers(r, ts)
		return r, tour(e, r, "slipd")
	}
	tail, tailMs := tailOf(all)
	r.stamp["op_tail_percentile"] = tail
	r.report(s.setups, s.hwm, 1000*ratio(s.cpu, float64(len(s.ops))), orZero(quantile(all, 50)), opsPerSec(s.start, s.ops))
	r.named["op_tail_ms"] = tailMs
	r.named["hit_p50_ms"] = orZero(quantile(hits, 50))
	p, v := tailOf(hits)
	r.named["hit_"+pname(p)+"_ms"] = v
	r.named["miss_p50_ms"] = orZero(quantile(misses, 50))
	p, v = tailOf(misses)
	r.named["miss_"+pname(p)+"_ms"] = v
	return r, nil
}

// slipdLayers fills the server and store per-layer metrics from a traced
// session: generator spans, slipd's job timestamps and /metrics deltas.
func slipdLayers(r *result, s *slipdOut) {
	var subHit, subMiss, fetch, queue, run, notify []float64
	shed := 0
	for i := range s.ops {
		o := &s.ops[i]
		if o.shed {
			shed++
		}
		if o.err != nil {
			continue
		}
		fetch = append(fetch, ms(o.fetchD))
		if !o.miss {
			subHit = append(subHit, ms(o.submitD))
			continue
		}
		subMiss = append(subMiss, ms(o.submitD))
		if v := o.view; v != nil {
			queue = append(queue, ms(v.Started.Sub(v.Created)))
			run = append(run, ms(v.Finished.Sub(*v.Started)))
			notify = append(notify, ms(o.notified.Sub(*v.Finished)))
		}
	}
	m := r.metrics
	m["server.submit_ms.hit.p50"] = orZero(quantile(subHit, 50))
	m["server.submit_ms.hit.p99"] = orZero(quantile(subHit, 99))
	m["server.submit_ms.miss.p50"] = orZero(quantile(subMiss, 50))
	m["server.submit_ms.miss.p90"] = orZero(quantile(subMiss, 90))
	m["server.fetch_ms.p50"] = orZero(quantile(fetch, 50))
	m["server.fetch_ms.p99"] = orZero(quantile(fetch, 99))
	m["server.queue_wait_ms.p50"] = orZero(quantile(queue, 50))
	m["server.queue_wait_ms.p90"] = orZero(quantile(queue, 90))
	m["server.run_ms.p50"] = orZero(quantile(run, 50))
	m["server.run_ms.p90"] = orZero(quantile(run, 90))
	m["server.notify_ms.p50"] = orZero(quantile(notify, 50))
	hits, _ := delta(s.before, s.after, "slipd_cache_hits_total")
	misses, _ := delta(s.before, s.after, "slipd_cache_misses_total")
	m["server.cache_hits"] = hits
	m["server.cache_misses"] = misses
	m["server.hit_ratio"] = ratio(hits, hits+misses)
	m["server.hit_ratio_base"] = hits + misses
	m["server.shed"] = float64(shed)
	m["store.hits"], _ = delta(s.before, s.after, "slipd_store_hits_total")
	m["store.misses"], _ = delta(s.before, s.after, "slipd_store_misses_total")
	jb, _ := delta(s.before, s.after, "slipd_journal_bytes")
	jobs, _ := delta(s.before, s.after, "slipd_jobs_submitted_total")
	m["store.journal_bytes_per_job"] = ratio(jb, jobs)
	m["loadgen.lag_p99_ms"] = quantile(append([]float64(nil), s.lags...), 99)
	r.stamp["server_samples"] = map[string]int{"hits": len(subHit), "misses": len(subMiss), "job_views": len(queue)}
}

func writeDigests(root string, d map[string]string) error {
	b, err := json.MarshalIndent(d, "", "  ")
	if err != nil {
		return err
	}
	return writeFile(filepath.Join(root, "perfbench", "testdata", "digests.json"), append(b, '\n'))
}
