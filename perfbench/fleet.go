package main

import (
	"fmt"
	"math"
	"runtime"
	"sync"
	"sync/atomic"
	"time"
)

const (
	// fleetRate is the job rate the fleet workload is sized for, about
	// what two workers on a 2-core host complete: a session of secs seconds
	// runs fleetRate·secs jobs, rounded to whole blocks of the spec stream.
	fleetRate = 30.0
	// fleetGiveUp bounds a session at this many times its nominal length.
	fleetGiveUp = 4.0
)

// fleetNodes is the machine size of every fleet job.
var fleetNodes = []int{2}

// fleetJobs is the fixed number of jobs a fleet session of secs seconds
// runs: whole blocks of the spec stream, so that every seed and every
// commit runs the same mix of kernels, modes, tokens and sync schemes.
func fleetJobs(secs float64) int {
	bs := blockSize(fleetNodes)
	return max(1, int(math.Round(fleetRate*secs/float64(bs)))) * bs
}

// fleet is one coordinator and two workers.
type fleet struct {
	coord   *daemon
	workers []*daemon
}

func (f *fleet) all() []*daemon { return append([]*daemon{f.coord}, f.workers...) }

// stop drains the workers first, so no claim is left to expire, then the
// coordinator.
func (f *fleet) stop() {
	var wg sync.WaitGroup
	for _, w := range f.workers {
		wg.Add(1)
		go func(w *daemon) {
			defer wg.Done()
			w.stop()
		}(w)
	}
	wg.Wait()
	f.coord.stop()
}

// fleetCPU sums the CPU seconds of the fleet's processes.
func fleetCPU(f *fleet) (float64, error) {
	total := 0.0
	for _, d := range f.all() {
		c, err := cpuOf(d.cmd.Process.Pid)
		if err != nil {
			return 0, err
		}
		total += c
	}
	return total, nil
}

func (f *fleet) kill() {
	for _, d := range f.all() {
		d.kill()
	}
}

// startFleet measures spawn → every process answers /readyz and the
// coordinator's /cluster/workers lists both workers live. The workers are
// spawned once the coordinator is ready, as an operator would, so that
// their first contact with it does not race its start.
func startFleet(e env, c clients) (*fleet, setup, error) {
	settleDisk(e.build)
	t0 := time.Now()
	coord, err := startDaemon(e, "-coordinator")
	if err != nil {
		return nil, setup{}, err
	}
	f := &fleet{coord: coord}
	if err := coord.waitReady(c.req, 30*time.Second); err != nil {
		f.kill()
		return nil, setup{}, err
	}
	for i := 0; i < 2; i++ {
		w, err := startDaemon(e, "-worker", "-join", coord.base)
		if err != nil {
			f.kill()
			return nil, setup{}, err
		}
		f.workers = append(f.workers, w)
	}
	for _, d := range f.workers {
		if err := d.waitReady(c.req, 30*time.Second); err != nil {
			f.kill()
			return nil, setup{}, err
		}
	}
	deadline := time.Now().Add(30 * time.Second)
	for liveWorkers(c, coord.base) < 2 {
		if time.Now().After(deadline) {
			f.kill()
			return nil, setup{}, fmt.Errorf("fleet workers never showed live at %s/cluster/workers", coord.base)
		}
		time.Sleep(readyPoll)
	}
	wall := time.Since(t0).Seconds()
	cpu, err := fleetCPU(f)
	if err != nil {
		f.kill()
		return nil, setup{}, err
	}
	return f, setup{wall: wall, cpu: cpu}, nil
}

// liveWorkers counts workers the coordinator reports live; an entry
// without a state field counts as live.
func liveWorkers(c clients, base string) int {
	var v struct {
		Workers []struct {
			State *string `json:"state"`
		} `json:"workers"`
	}
	if err := c.getJSON(base+"/cluster/workers", &v); err != nil {
		return 0
	}
	n := 0
	for _, w := range v.Workers {
		if w.State == nil || *w.State == "live" {
			n++
		}
	}
	return n
}

// fleetOut is what one fleet session measured.
type fleetOut struct {
	setups                  []setup
	hwm                     float64
	cpu                     float64 // the daemons' CPU seconds over the timed window
	start                   time.Time
	wall                    time.Duration // first job issued → last job back
	ops                     []opRecord
	coordBefore, coordAfter promSeries
	workBefore, workAfter   []promSeries
}

// fleetSession runs a closed loop of nproc clients, each submitting the
// next unique small job to the coordinator as soon as its last one is
// back, until the fleetJobs(secs) jobs are done.
func fleetSession(e env, r *result, secs float64, traced bool) (*fleetOut, error) {
	digests, err := loadDigests(e.root)
	if err != nil {
		return nil, err
	}
	c := newClients()
	defer c.close()
	out := &fleetOut{}
	var f *fleet
	for i := 0; i < setupRepeats; i++ {
		if f != nil {
			f.kill()
		}
		var s setup
		if f, s, err = startFleet(e, c); err != nil {
			return nil, err
		}
		out.setups = append(out.setups, s)
	}
	defer f.stop()

	warm(r, c, f.coord.base, fleetCanary, digests)
	scrapeAll := func() (promSeries, []promSeries, error) {
		co, err := c.scrape(f.coord.base)
		if err != nil {
			return nil, nil, err
		}
		var ws []promSeries
		for _, w := range f.workers {
			p, err := c.scrape(w.base)
			if err != nil {
				return nil, nil, err
			}
			ws = append(ws, p)
		}
		return co, ws, nil
	}
	if out.coordBefore, out.workBefore, err = scrapeAll(); err != nil {
		return nil, err
	}

	cpu0, err := fleetCPU(f)
	if err != nil {
		return nil, err
	}
	// The work is fixed, not the time: every commit runs the same jobs, so
	// per-job CPU compares like with like. Should the fleet fall far behind
	// the rate it is sized for, the loop stops issuing and the run is invalid.
	stream := specStream(e.seed, fleetJobs(secs), fleetNodes)
	var next atomic.Int64
	var mu sync.Mutex
	var wg sync.WaitGroup
	out.start = time.Now()
	giveUp := out.start.Add(time.Duration(fleetGiveUp * secs * float64(time.Second)))
	for w := 0; w < runtime.NumCPU(); w++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for time.Now().Before(giveUp) {
				i := int(next.Add(1)) - 1
				if i >= len(stream) {
					return
				}
				o := opRecord{miss: true, due: time.Now()}
				missOp(c, f.coord.base, stream[i], traced, &o)
				mu.Lock()
				out.ops = append(out.ops, o)
				mu.Unlock()
			}
		}()
	}
	wg.Wait()
	out.wall = time.Since(out.start)
	if len(out.ops) < len(stream) {
		r.invalid = fmt.Sprintf("fleet ran %d of its %d jobs in %.0f s", len(out.ops), len(stream), out.wall.Seconds())
	}
	cpu1, err := fleetCPU(f)
	if err != nil {
		return nil, err
	}
	out.cpu = cpu1 - cpu0

	if out.coordAfter, out.workAfter, err = scrapeAll(); err != nil {
		return nil, err
	}
	for _, d := range f.all() {
		h, err := d.hwm()
		if err != nil {
			return nil, err
		}
		out.hwm += h
	}
	for i := range out.ops {
		r.attempted++
		if out.ops[i].err != nil {
			r.fail(1, "fleet job: %v", out.ops[i].err)
		}
	}
	// A job the coordinator ran itself did not measure the fleet.
	if fb, ok := delta(out.coordBefore, out.coordAfter, "slipd_local_fallbacks_total"); ok {
		r.fail(int(fb), "coordinator ran %d job(s) locally instead of on the fleet", int(fb))
	}
	return out, nil
}

func runFleet(e env, traced bool) (*result, error) {
	r := newResult()
	r.stamp["scale"], r.stamp["nodes"] = "test", 2
	r.stamp["clients"] = runtime.NumCPU()
	s, err := fleetSession(e, r, e.secs, false)
	if err != nil {
		return nil, err
	}
	lat := okLatencies(s.ops)
	if traced {
		ts, err := fleetSession(e, r, e.secs, true)
		if err != nil {
			return nil, err
		}
		r.metrics["trace.overhead_s"] = (meanOf(okLatencies(ts.ops)) - meanOf(lat)) / 1000
		fleetLayers(r, ts)
		return r, tour(e, r, "fleet")
	}
	tail, tailMs := tailOf(lat)
	r.stamp["op_tail_percentile"] = tail
	r.report(s.setups, s.hwm, 1000*ratio(s.cpu, float64(len(s.ops))), orZero(quantile(lat, 50)), opsPerSec(s.start, s.ops))
	r.named["op_tail_ms"] = tailMs
	r.named["fleet_jobs_per_s"] = r.named["ops_per_s"]
	return r, nil
}

// fleetLayers fills the cluster per-layer metrics from a traced session.
func fleetLayers(r *result, s *fleetOut) {
	coSum, _ := delta(s.coordBefore, s.coordAfter, "slipd_run_seconds_sum")
	coN, _ := delta(s.coordBefore, s.coordAfter, "slipd_run_seconds_count")
	var wSum, wN float64
	for i := range s.workAfter {
		ws, _ := delta(s.workBefore[i], s.workAfter[i], "slipd_run_seconds_sum")
		wn, _ := delta(s.workBefore[i], s.workAfter[i], "slipd_run_seconds_count")
		wSum += ws
		wN += wn
	}
	var queue []float64
	for i := range s.ops {
		if v := s.ops[i].view; v != nil && s.ops[i].err == nil {
			queue = append(queue, ms(v.Started.Sub(v.Created)))
		}
	}
	m := r.metrics
	m["cluster.dispatch_overhead_ms"] = 1000 * (ratio(coSum, coN) - ratio(wSum, wN))
	m["cluster.worker_busy"] = ratio(wSum, s.wall.Seconds()*float64(len(s.workAfter)))
	m["cluster.claims"] = s.coordAfter[`slipd_claims_total{outcome="granted"}`] - s.coordBefore[`slipd_claims_total{outcome="granted"}`]
	m["cluster.lease_expirations"], _ = delta(s.coordBefore, s.coordAfter, "slipd_lease_expirations_total")
	m["cluster.local_fallbacks"], _ = delta(s.coordBefore, s.coordAfter, "slipd_local_fallbacks_total")
	m["cluster.queue_wait_ms.p50"] = orZero(quantile(queue, 50))
}
