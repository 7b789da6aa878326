// Command benchdiff compares a candidate benchmark JSON file (produced by
// tools/benchjson) against a committed baseline and fails when a metric
// regresses beyond its tolerance. It is the CI perf ratchet behind
// `make bench-check`.
//
// Rows with the same benchmark name (e.g. from `go test -count=N`) are
// grouped and the minimum of each metric is compared — min-of-N is robust
// against scheduler noise on shared CI runners. Tolerances are per metric:
// allocs/op and B/op are deterministic for this simulator, so they get the
// tight gate; ns/op is host-timing dependent and may be given a looser one
// via -ns-tol.
//
// The work counters the simulator benchmarks report (sim-cycles,
// events/op, handoffs/op) are exact functions of the simulated program, so
// when the baseline has one, any change to it fails — a faster engine must
// do the same work. Changing them on purpose means committing a new
// baseline.
//
// A benchmark present in the baseline but missing from the candidate is a
// failure too: silently dropping a gated benchmark must not pass the
// ratchet.
//
// Files are benchjson's {"host", "benchmarks"} object; baselines written
// before benchjson stamped the host are a bare array of rows and still
// load. When both files carry a host stamp and the stamps differ, the
// comparison runs but says so, since ns/op then compares two machines.
package main

import (
	"bytes"
	"encoding/json"
	"flag"
	"fmt"
	"os"
	"path/filepath"
	"regexp"
	"sort"
	"strconv"
)

// Bench mirrors tools/benchjson's output row.
type Bench struct {
	Name        string  `json:"name"`
	Iterations  int64   `json:"iterations"`
	NsPerOp     float64 `json:"ns_op"`
	BytesPerOp  int64   `json:"bytes_op,omitempty"`
	AllocsPerOp int64   `json:"allocs_op,omitempty"`

	SimCycles     int64 `json:"sim_cycles,omitempty"`
	EventsPerOp   int64 `json:"events_op,omitempty"`
	HandoffsPerOp int64 `json:"handoffs_op,omitempty"`
}

// File mirrors tools/benchjson's output document.
type File struct {
	Host       *Host   `json:"host"`
	Benchmarks []Bench `json:"benchmarks"`
}

// Host mirrors tools/benchjson's host stamp.
type Host struct {
	GOMAXPROCS int    `json:"gomaxprocs"`
	NumCPU     int    `json:"num_cpu"`
	CPU        string `json:"cpu,omitempty"`
	GoVersion  string `json:"go_version"`
}

// String renders the stamp on one line.
func (h *Host) String() string {
	if h == nil {
		return "unrecorded host"
	}
	return fmt.Sprintf("%s, GOMAXPROCS=%d, %d CPUs (%s)", h.GoVersion, h.GOMAXPROCS, h.NumCPU, h.CPU)
}

// metrics is the min-of-N aggregate of one benchmark's rows.
type metrics struct {
	ns     float64
	bytes  int64
	allocs int64
	iters  int64 // minimum iteration count observed
	rows   int

	// Work counters; deterministic, so every row should agree.
	cycles, events, handoffs int64
}

// aggregate groups rows by name and keeps the minimum of each metric.
func aggregate(rows []Bench) map[string]*metrics {
	out := make(map[string]*metrics, len(rows))
	for _, r := range rows {
		m := out[r.Name]
		if m == nil {
			out[r.Name] = &metrics{ns: r.NsPerOp, bytes: r.BytesPerOp, allocs: r.AllocsPerOp, iters: r.Iterations, rows: 1,
				cycles: r.SimCycles, events: r.EventsPerOp, handoffs: r.HandoffsPerOp}
			continue
		}
		m.rows++
		if r.NsPerOp < m.ns {
			m.ns = r.NsPerOp
		}
		if r.BytesPerOp < m.bytes {
			m.bytes = r.BytesPerOp
		}
		if r.AllocsPerOp < m.allocs {
			m.allocs = r.AllocsPerOp
		}
		if r.Iterations < m.iters {
			m.iters = r.Iterations
		}
		m.cycles = min(m.cycles, r.SimCycles)
		m.events = min(m.events, r.EventsPerOp)
		m.handoffs = min(m.handoffs, r.HandoffsPerOp)
	}
	return out
}

// finding is one comparison result line.
type finding struct {
	name string
	msg  string
	fail bool
}

// compare evaluates candidate against baseline under the given tolerances
// and returns the findings plus whether any gate failed.
func compare(base, cand map[string]*metrics, nsTol, allocsTol float64) ([]finding, bool) {
	names := make([]string, 0, len(base))
	for n := range base {
		names = append(names, n)
	}
	sort.Strings(names)

	var out []finding
	failed := false
	for _, n := range names {
		b, c := base[n], cand[n]
		if c == nil {
			out = append(out, finding{n, "missing from candidate (benchmark removed or renamed?)", true})
			failed = true
			continue
		}
		if bad, msg := gateInt(c.allocs, b.allocs, allocsTol, "allocs/op"); bad {
			out = append(out, finding{n, msg, true})
			failed = true
		}
		for _, w := range []struct {
			label      string
			base, cand int64
		}{
			{"sim-cycles", b.cycles, c.cycles},
			{"events/op", b.events, c.events},
			{"handoffs/op", b.handoffs, c.handoffs},
		} {
			if w.base != 0 && w.cand != w.base {
				out = append(out, finding{n, fmt.Sprintf("%s changed %d -> %d (deterministic count; any change fails)",
					w.label, w.base, w.cand), true})
				failed = true
			}
		}
		if b.ns > 0 && c.ns > b.ns*(1+nsTol) {
			out = append(out, finding{n, fmt.Sprintf("ns/op regressed %.0f -> %.0f (%+.1f%%, tol %.0f%%)",
				b.ns, c.ns, 100*(c.ns/b.ns-1), 100*nsTol), true})
			failed = true
		}
	}
	return out, failed
}

// gateInt applies a relative tolerance to an integer metric; a zero
// baseline means any nonzero candidate value is a regression.
func gateInt(cand, base int64, tol float64, label string) (bool, string) {
	if base == 0 {
		if cand > 0 {
			return true, fmt.Sprintf("%s regressed 0 -> %d (baseline was allocation-free)", label, cand)
		}
		return false, ""
	}
	if float64(cand) > float64(base)*(1+tol) {
		return true, fmt.Sprintf("%s regressed %d -> %d (%+.1f%%, tol %.0f%%)",
			label, base, cand, 100*(float64(cand)/float64(base)-1), 100*tol)
	}
	return false, ""
}

var baselinePat = regexp.MustCompile(`^BENCH_PR(\d+)\.json$`)

// latestBaseline returns the BENCH_PRn.json with the highest n in dir.
func latestBaseline(dir string) (string, error) {
	ents, err := os.ReadDir(dir)
	if err != nil {
		return "", err
	}
	best, bestN := "", -1
	for _, e := range ents {
		m := baselinePat.FindStringSubmatch(e.Name())
		if m == nil {
			continue
		}
		n, err := strconv.Atoi(m[1])
		if err != nil {
			continue
		}
		if n > bestN {
			bestN, best = n, filepath.Join(dir, e.Name())
		}
	}
	if best == "" {
		return "", fmt.Errorf("no BENCH_PRn.json baseline found in %s", dir)
	}
	return best, nil
}

// load reads a benchmark file in either format and aggregates its rows;
// the host is nil for a bare-array baseline.
func load(path string) (map[string]*metrics, *Host, error) {
	data, err := os.ReadFile(path)
	if err != nil {
		return nil, nil, err
	}
	var f File
	if bytes.HasPrefix(bytes.TrimSpace(data), []byte("[")) {
		err = json.Unmarshal(data, &f.Benchmarks)
	} else {
		err = json.Unmarshal(data, &f)
	}
	if err != nil {
		return nil, nil, fmt.Errorf("%s: %v", path, err)
	}
	if len(f.Benchmarks) == 0 {
		return nil, nil, fmt.Errorf("%s: no benchmark rows", path)
	}
	return aggregate(f.Benchmarks), f.Host, nil
}

func main() {
	var (
		baseline  = flag.String("baseline", "latest", "baseline JSON file, or 'latest' to use the highest-numbered BENCH_PRn.json in -dir")
		dir       = flag.String("dir", ".", "directory searched for the latest baseline")
		newPath   = flag.String("new", "", "candidate JSON file to gate (required)")
		nsTol     = flag.Float64("ns-tol", 0.10, "relative ns/op regression tolerance")
		allocsTol = flag.Float64("allocs-tol", 0.10, "relative allocs/op regression tolerance")
		minIters  = flag.Int64("min-iters", 2, "warn when a gated benchmark ran fewer iterations than this")
	)
	flag.Parse()
	if *newPath == "" {
		fmt.Fprintln(os.Stderr, "benchdiff: -new is required")
		os.Exit(2)
	}
	basePath := *baseline
	if basePath == "latest" {
		var err error
		basePath, err = latestBaseline(*dir)
		if err != nil {
			fmt.Fprintln(os.Stderr, "benchdiff:", err)
			os.Exit(2)
		}
	}
	if abs, _ := filepath.Abs(basePath); abs != "" {
		if nabs, _ := filepath.Abs(*newPath); nabs == abs {
			fmt.Fprintf(os.Stderr, "benchdiff: candidate and baseline are the same file (%s); the bench target must not overwrite the committed baseline\n", basePath)
			os.Exit(2)
		}
	}
	base, baseHost, err := load(basePath)
	if err != nil {
		fmt.Fprintln(os.Stderr, "benchdiff:", err)
		os.Exit(2)
	}
	cand, candHost, err := load(*newPath)
	if err != nil {
		fmt.Fprintln(os.Stderr, "benchdiff:", err)
		os.Exit(2)
	}
	fmt.Printf("benchdiff: baseline on %v; candidate on %v\n", baseHost, candHost)
	if baseHost != nil && candHost != nil && *baseHost != *candHost {
		fmt.Println("benchdiff: note: the hosts differ; ns/op compares two machines")
	}

	for name, m := range cand {
		if m.iters < *minIters {
			fmt.Fprintf(os.Stderr, "benchdiff: warning: %s ran %d iteration(s); single-iteration timings are noisy (raise -benchtime)\n", name, m.iters)
		}
	}

	findings, failed := compare(base, cand, *nsTol, *allocsTol)
	improved, checked := 0, 0
	for n, b := range base {
		if c := cand[n]; c != nil {
			checked++
			if c.allocs < b.allocs || (b.ns > 0 && c.ns < b.ns) {
				improved++
			}
		}
	}
	fmt.Printf("benchdiff: %s vs %s: %d benchmarks gated, %d improved, %d regressions\n",
		*newPath, basePath, checked, improved, len(findings))
	for _, f := range findings {
		fmt.Printf("  FAIL %s: %s\n", f.name, f.msg)
	}
	if failed {
		fmt.Println("benchdiff: performance ratchet FAILED")
		os.Exit(1)
	}
	fmt.Println("benchdiff: performance ratchet ok")
}
