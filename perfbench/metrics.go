package main

import (
	"bufio"
	"crypto/sha256"
	"encoding/hex"
	"fmt"
	"io"
	"io/fs"
	"math"
	"os"
	"os/exec"
	"path/filepath"
	"regexp"
	"sort"
	"strconv"
	"strings"
)

type metricDef struct{ name, unit string }

// endToEnd are the metrics every workload reports with -trace 0, each over
// its own unit of work (an "operation"):
//
//	figures: one pass over the Fig 2–5 matrix, rendering included
//	slipd:   one request, scheduled due time → result bytes received
//	fleet:   one job, submit → result bytes received
//
// They are what the work costs in CPU time and memory: setup_s is the CPU
// time of set-up, cpu_ms_per_op the CPU time of the processes under test
// per operation. The wall-clock numbers a user waits for (op_p50_ms,
// op_tail_ms, ops_per_s, setup_wall_s and each workload's own, such as
// suite_s, hit_p99_ms and fleet_jobs_per_s) are printed by name above the
// JSON line but not gated: on a shared 2-core host they drift by a quarter
// or more within half an hour, with whatever else the host runs.
var endToEnd = []metricDef{
	{"setup_s", "s"},
	{"rss_peak_mb", "MB"},
	{"cpu_ms_per_op", "ms"},
}

// perLayer are the metrics every -trace 1 run reports. A traced run covers
// every layer: its own workload at full size, the other two at reduced
// size, and the fixed layer probes.
var perLayer = []metricDef{
	{"trace.overhead_s", "s"},

	{"sim.ns_per_event", "ns"},
	{"sim.ns_per_handoff", "ns"},
	{"machine.ns_per_l1_hit", "ns"},
	{"machine.ns_per_l2_hit", "ns"},
	{"machine.ns_per_remote_miss", "ns"},
	{"omp.ns_per_barrier", "ns"},
	{"omp.ns_per_dyn_chunk", "ns"},
	{"omp.ns_per_task", "ns"},
	{"store.append_fsync_ms", "ms"},

	{"omp.new_s", "s"},
	{"npb.build_s", "s"},
	{"omp.run_s", "s"},
	{"npb.verify_s", "s"},
	{"experiments.render_s", "s"},
	{"experiments.pool_parallelism", "ratio"},
	{"machine.accesses", "count"},
	{"machine.l2_misses", "count"},
	{"machine.remote_misses", "count"},
	{"machine.fills", "count"},
	{"machine.invals", "count"},
	{"sim.cycles", "count"},
	{"core.recoveries", "count"},
	{"omp.run_ns_per_kcycle", "ns"},
	{"omp.run_ns_per_access.single", "ns"},
	{"omp.run_ns_per_access.double", "ns"},
	{"omp.run_ns_per_access.slipstream", "ns"},

	{"server.submit_ms.hit.p50", "ms"},
	{"server.submit_ms.hit.p99", "ms"},
	{"server.submit_ms.miss.p50", "ms"},
	{"server.submit_ms.miss.p90", "ms"},
	{"server.fetch_ms.p50", "ms"},
	{"server.fetch_ms.p99", "ms"},
	{"server.queue_wait_ms.p50", "ms"},
	{"server.queue_wait_ms.p90", "ms"},
	{"server.run_ms.p50", "ms"},
	{"server.run_ms.p90", "ms"},
	{"server.notify_ms.p50", "ms"},
	{"server.cache_hits", "count"},
	{"server.cache_misses", "count"},
	{"server.hit_ratio", "ratio"},
	{"server.hit_ratio_base", "count"},
	{"server.shed", "count"},
	{"store.hits", "count"},
	{"store.misses", "count"},
	{"store.journal_bytes_per_job", "B"},
	{"loadgen.lag_p99_ms", "ms"},

	{"cluster.dispatch_overhead_ms", "ms"},
	{"cluster.worker_busy", "ratio"},
	{"cluster.claims", "count"},
	{"cluster.lease_expirations", "count"},
	{"cluster.local_fallbacks", "count"},
	{"cluster.queue_wait_ms.p50", "ms"},
}

// metricName is the character set the result format allows in a name.
var metricName = regexp.MustCompile(`^[A-Za-z0-9][A-Za-z0-9_.-]*$`)

// percentileLadder is the set of percentiles a tail is chosen from.
var percentileLadder = []float64{99.9, 99, 95, 90, 80, 70, 60, 50}

// tailPercentile is the percentile rule: the highest percentile of the
// ladder that leaves at least ten samples beyond it. It returns 0 when n
// is too small for even the median.
func tailPercentile(n int) float64 {
	for _, p := range percentileLadder {
		if float64(n)*(100-p)/100 >= 10-1e-9 {
			return p
		}
	}
	return 0
}

// tailOf returns the rule's tail percentile of xs and its value. With too
// few samples for any percentile of the ladder it reports the maximum,
// as percentile 100.
func tailOf(xs []float64) (float64, float64) {
	p := tailPercentile(len(xs))
	if p == 0 {
		p = 100
	}
	return p, orZero(quantile(xs, p))
}

// quantile returns the p-th percentile of xs (p in [0,100]), interpolating
// linearly between the closest ranks, and sorts xs in place. The median of
// two samples is their mean, so a run that fits one more matrix pass than
// another is not biased low. NaN for an empty slice.
func quantile(xs []float64, p float64) float64 {
	if len(xs) == 0 {
		return math.NaN()
	}
	sort.Float64s(xs)
	pos := p / 100 * float64(len(xs)-1)
	lo := int(math.Floor(pos))
	if lo >= len(xs)-1 {
		return xs[len(xs)-1]
	}
	return xs[lo] + (pos-float64(lo))*(xs[lo+1]-xs[lo])
}

// median of xs (sorts in place).
func median(xs []float64) float64 { return quantile(xs, 50) }

// orZero replaces NaN (an empty sample set) with 0 so the JSON stays
// valid; callers that need a sample guarantee check counts themselves.
func orZero(v float64) float64 {
	if math.IsNaN(v) || math.IsInf(v, 0) {
		return 0
	}
	return v
}

// ratio divides, with 0 for an empty base.
func ratio(num, den float64) float64 {
	if den == 0 {
		return 0
	}
	return num / den
}

// vmHWM returns a process's peak resident set in MiB from /proc.
func vmHWM(pid int) (float64, error) {
	f, err := os.Open(fmt.Sprintf("/proc/%d/status", pid))
	if err != nil {
		return 0, err
	}
	defer f.Close()
	sc := bufio.NewScanner(f)
	for sc.Scan() {
		if rest, ok := strings.CutPrefix(sc.Text(), "VmHWM:"); ok {
			kb, err := strconv.ParseFloat(strings.TrimSpace(strings.TrimSuffix(strings.TrimSpace(rest), "kB")), 64)
			if err != nil {
				return 0, err
			}
			return kb / 1024, nil
		}
	}
	return 0, fmt.Errorf("no VmHWM for pid %d", pid)
}

// cpuOf returns the CPU time in seconds a process has run so far: the sum
// of its threads' on-CPU nanoseconds from /proc/<pid>/task/*/schedstat.
// Time a host's neighbours steal is not in it, which is why the gated
// metrics are CPU time rather than wall time.
func cpuOf(pid int) (float64, error) {
	dir := fmt.Sprintf("/proc/%d/task", pid)
	tasks, err := os.ReadDir(dir)
	if err != nil {
		return 0, err
	}
	total := 0.0
	for _, t := range tasks {
		b, err := os.ReadFile(filepath.Join(dir, t.Name(), "schedstat"))
		if err != nil {
			continue // the thread exited between the listing and the read
		}
		f := strings.Fields(string(b))
		if len(f) == 0 {
			continue
		}
		ns, err := strconv.ParseFloat(f[0], 64)
		if err != nil {
			return 0, fmt.Errorf("%s/%s/schedstat: %w", dir, t.Name(), err)
		}
		total += ns / 1e9
	}
	return total, nil
}

// setup is one measured set-up: wall time and the CPU time the processes
// under test spent in it.
type setup struct{ wall, cpu float64 }

// setupMedians returns the medians of the CPU and wall times of ss.
func setupMedians(ss []setup) (cpu, wall float64) {
	var c, w []float64
	for _, x := range ss {
		c = append(c, x.cpu)
		w = append(w, x.wall)
	}
	return median(c), median(w)
}

// commitOf identifies the code under test: the git commit when the
// checkout is a repository, otherwise a digest of its Go sources and
// module files (an exported source tree carries no .git).
func commitOf(root string) string {
	if _, err := os.Stat(filepath.Join(root, ".git")); err == nil {
		if out, err := exec.Command("git", "-C", root, "rev-parse", "HEAD").Output(); err == nil {
			return strings.TrimSpace(string(out))
		}
	}
	var files []string
	_ = filepath.WalkDir(root, func(path string, d fs.DirEntry, err error) error {
		if err != nil {
			return nil // unreadable entries are simply left out of the digest
		}
		if d.IsDir() {
			if path != root && strings.HasPrefix(d.Name(), ".") {
				return filepath.SkipDir
			}
			return nil
		}
		if strings.HasSuffix(path, ".go") || d.Name() == "go.mod" {
			files = append(files, path)
		}
		return nil
	})
	sort.Strings(files)
	h := sha256.New()
	for _, f := range files {
		rel, _ := filepath.Rel(root, f)
		fmt.Fprintf(h, "%s\x00", rel)
		if fh, err := os.Open(f); err == nil {
			_, _ = io.Copy(h, fh)
			fh.Close()
		}
	}
	return "src-" + hex.EncodeToString(h.Sum(nil))[:16]
}
