// Command perfbench is the repository benchmark. It runs one workload end
// to end, checks every output it produces, and prints the metrics as one
// JSON object on the last line of standard output:
//
//	perfbench -workload figures|slipd|fleet -seed N -seconds S -trace 0|1
//
// With -trace 0 it reports the end-to-end metrics, measured with no
// tracing. With -trace 1 it runs the workload untraced and then traced, and
// reports the per-layer metrics plus the tracing overhead (traced time
// minus untraced time). run.sh builds slipd and this program from the
// checkout before running it; see README.md.
package main

import (
	"context"
	"encoding/json"
	"flag"
	"fmt"
	"io"
	"os"
	"path/filepath"
	"runtime"
	"sort"
	"strings"
	"time"
)

// env locates the checkout and the build outputs.
type env struct {
	root  string // checkout root (holds cmd/slipd and this directory)
	build string // build directory: slipd binary and scratch space
	slipd string // slipd binary built from the checkout
	seed  int64
	secs  float64
}

func main() {
	var (
		workload = flag.String("workload", "", "workload: figures|slipd|fleet")
		seed     = flag.Int64("seed", 1, "seed for the generated inputs")
		seconds  = flag.Int("seconds", 20, "measured seconds per session")
		trace    = flag.Int("trace", 0, "0 = end-to-end metrics, 1 = per-layer metrics and tracing overhead")
		root     = flag.String("root", ".", "checkout root")
		build    = flag.String("build", ".bench_build", "build directory")
		probe    = flag.Bool("setup-probe", false, "internal: figures set-up probe child")
		writeRef = flag.Bool("write-references", false, "regenerate testdata references from the checkout's simulator, then exit")
	)
	flag.Parse()
	if *probe {
		os.Exit(runSetupProbe())
	}
	e := env{root: *root, build: *build, seed: *seed, secs: float64(*seconds)}
	e.slipd = filepath.Join(e.build, "slipd")
	if *writeRef {
		if err := writeReferences(e); err != nil {
			fatal(err)
		}
		return
	}
	if *seconds < 1 || (*trace != 0 && *trace != 1) {
		fatal(fmt.Errorf("-seconds must be ≥1 and -trace 0 or 1"))
	}
	if _, err := os.Stat(filepath.Join(e.root, "cmd", "slipd")); err != nil {
		fatal(fmt.Errorf("checkout root %s has no cmd/slipd: %w", e.root, err))
	}
	run, ok := workloads[*workload]
	if !ok {
		fatal(fmt.Errorf("unknown workload %q (valid: figures, slipd, fleet)", *workload))
	}
	r, err := run(e, *trace == 1)
	if err != nil {
		fatal(err)
	}
	if err := emit(os.Stdout, e, *workload, *trace == 1, r); err != nil {
		fatal(err)
	}
}

func fatal(err error) {
	fmt.Fprintln(os.Stderr, "perfbench:", err)
	os.Exit(1)
}

// workloads maps each workload name to its runner. A runner returns an
// error only when the benchmark itself cannot run (a missing binary, a
// daemon that never became ready); wrong outputs are counted as failed
// operations in the result instead.
var workloads = map[string]func(e env, traced bool) (*result, error){
	"figures": runFigures,
	"slipd":   runSlipd,
	"fleet":   runFleet,
}

// result is one run's outcome: operation counts, the metrics the contract
// asks for (end-to-end or per-layer), and the workload's own named
// metrics, which go into the stamped record line.
type result struct {
	attempted int
	failed    int
	invalid   string             // non-empty: the run measured nothing trustworthy
	metrics   map[string]float64 // contract metrics for this mode
	named     map[string]float64 // the workload's own end-to-end metrics
	stamp     map[string]any     // scale, nodes and other input facts
}

func newResult() *result {
	return &result{metrics: map[string]float64{}, named: map[string]float64{}, stamp: map[string]any{}}
}

// report fills the end-to-end metrics every workload shares, and the
// workload's timings, which are printed by name but not gated.
func (r *result) report(ss []setup, hwm, cpuPerOp, p50, opsPerSec float64) {
	cpu, wall := setupMedians(ss)
	r.metrics["setup_s"] = cpu
	r.metrics["rss_peak_mb"] = hwm
	r.metrics["cpu_ms_per_op"] = cpuPerOp
	r.named["setup_s"] = cpu
	r.named["setup_wall_s"] = wall
	r.named["rss_peak_mb"] = hwm
	r.named["cpu_ms_per_op"] = cpuPerOp
	r.named["op_p50_ms"] = p50
	r.named["ops_per_s"] = opsPerSec
	samples := make([][2]float64, len(ss))
	for i, x := range ss {
		samples[i] = [2]float64{x.cpu, x.wall}
	}
	r.stamp["setup_samples_cpu_wall_s"] = samples
}

// fail records n failed operations with a reason on standard error.
func (r *result) fail(n int, format string, args ...any) {
	if n <= 0 {
		return
	}
	r.failed += n
	fmt.Fprintf(os.Stderr, "perfbench: FAIL (%d): %s\n", n, fmt.Sprintf(format, args...))
}

// emit prints the human-readable metric lines, the stamped record, and the
// contract's JSON object last.
func emit(w io.Writer, e env, workload string, traced bool, r *result) error {
	defs := endToEnd
	if traced {
		defs = perLayer
	}
	out := map[string]any{}
	for _, d := range defs {
		v, ok := r.metrics[d.name]
		if !ok {
			return fmt.Errorf("internal: metric %s was not measured", d.name)
		}
		out[d.name] = map[string]any{"value": v, "unit": d.unit}
	}
	for _, name := range sortedKeys(r.named) {
		fmt.Fprintf(w, "%-36s %14.4f %s\n", name, r.named[name], unitOf(name))
	}
	stamp := map[string]any{
		"workload":   workload,
		"trace":      traced,
		"seed":       e.seed,
		"seconds":    e.secs,
		"nproc":      runtime.NumCPU(),
		"gomaxprocs": runtime.GOMAXPROCS(0),
		"go":         runtime.Version(),
		"commit":     commitOf(e.root),
		"valid":      r.invalid == "",
	}
	for k, v := range r.stamp {
		stamp[k] = v
	}
	if r.invalid != "" {
		stamp["invalid"] = r.invalid
		fmt.Fprintln(os.Stderr, "perfbench: run invalid:", r.invalid)
	}
	record, err := json.Marshal(map[string]any{"env": stamp, "named": r.named, "metrics": r.metrics})
	if err != nil {
		return err
	}
	fmt.Fprintf(w, "record %s\n", record)
	final, err := json.Marshal(map[string]any{
		"correct":   r.failed == 0 && r.invalid == "",
		"attempted": r.attempted,
		"failed":    r.failed,
		"metrics":   out,
	})
	if err != nil {
		return err
	}
	_, err = fmt.Fprintf(w, "%s\n", final)
	return err
}

func sortedKeys[V any](m map[string]V) []string {
	keys := make([]string, 0, len(m))
	for k := range m {
		keys = append(keys, k)
	}
	sort.Strings(keys)
	return keys
}

// unitOf derives a display unit from a metric name's suffix.
func unitOf(name string) string {
	for _, d := range append(append([]metricDef{}, endToEnd...), perLayer...) {
		if d.name == name {
			return d.unit
		}
	}
	switch {
	case strings.HasSuffix(name, "_per_s"):
		return "1/s"
	case strings.HasSuffix(name, "_ms"):
		return "ms"
	case strings.HasSuffix(name, "_s"):
		return "s"
	case strings.HasSuffix(name, "_mb"):
		return "MB"
	}
	return "count"
}

// tour completes a traced run's per-layer metrics with every layer its
// own workload (skip) did not cover: the figures matrix at reduced size,
// short slipd and fleet sessions, and the fixed layer probes.
func tour(e env, r *result, skip string) error {
	if skip != "figures" {
		ref, err := readReference(e.root, figTour)
		if err != nil {
			return err
		}
		if _, err := traceFigures(r, figTour, ref, "tour figures"); err != nil {
			return err
		}
	}
	if skip != "slipd" {
		s, err := slipdSession(e, r, slipdTourSecs(), true)
		if err != nil {
			return err
		}
		slipdLayers(r, s)
	}
	if skip != "fleet" {
		s, err := fleetSession(e, r, tourSecs, true)
		if err != nil {
			return err
		}
		fleetLayers(r, s)
	}
	return probeLayers(e, r)
}

// writeReferences regenerates the committed references from the
// checkout's simulator and slipd: the two figures renderings and the
// digests of the hot set and the fleet canary. Use it only for a
// deliberate change of simulated results, and say so in CHANGES.md.
func writeReferences(e env) error {
	for _, c := range []figConfig{figFull, figTour} {
		sr, err := runSuite(c)
		if err != nil {
			return err
		}
		if len(sr.failures) > 0 {
			return fmt.Errorf("%s: %d cell(s) failed, first %s", c, len(sr.failures), sr.failures[0])
		}
		if err := writeFile(c.referencePath(e.root), sr.rendered); err != nil {
			return err
		}
	}
	cl := newClients()
	defer cl.close()
	d, _, err := startReady(e, cl)
	if err != nil {
		return err
	}
	defer d.stop()
	digests := map[string]string{}
	for _, s := range append(hotSet(), fleetCanary) {
		sub, err := cl.submit(d.base, s.json())
		if err != nil {
			return err
		}
		ctx, cancel := context.WithTimeout(context.Background(), 2*time.Minute)
		state, _, err := cl.awaitState(ctx, d.base, sub.Job.ID)
		cancel()
		if err != nil || state != "done" {
			return fmt.Errorf("%s: state %q: %v", s, state, err)
		}
		body, err := cl.result(d.base, sub.Job.ID)
		if err != nil {
			return err
		}
		if err := checkResult(body, ""); err != nil {
			return fmt.Errorf("%s: %w", s, err)
		}
		digests[s.String()] = digest(body)
	}
	return writeDigests(e.root, digests)
}
