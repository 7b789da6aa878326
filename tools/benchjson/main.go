// Command benchjson converts `go test -bench` output on stdin into a
// machine-readable JSON file, so benchmark numbers land in version
// control in a diffable shape (see `make bench`). The text stream is
// echoed through to stdout untouched.
//
// The file is an object: "host" stamps the benchmarked process's
// GOMAXPROCS, the host's CPU count and model, and the Go version, so
// baselines from different hosts are never compared blind; "benchmarks"
// holds the result rows.
package main

import (
	"bufio"
	"encoding/json"
	"flag"
	"fmt"
	"math"
	"os"
	"runtime"
	"strconv"
	"strings"
)

// File is the JSON document benchjson writes.
type File struct {
	Host       Host    `json:"host"`
	Benchmarks []Bench `json:"benchmarks"`
}

// Host describes where the benchmarks ran.
type Host struct {
	GOMAXPROCS int    `json:"gomaxprocs"`
	NumCPU     int    `json:"num_cpu"`
	CPU        string `json:"cpu,omitempty"`
	GoVersion  string `json:"go_version"`
}

// Bench is one benchmark result row.
type Bench struct {
	Name        string  `json:"name"`
	Iterations  int64   `json:"iterations"`
	NsPerOp     float64 `json:"ns_op"`
	BytesPerOp  int64   `json:"bytes_op,omitempty"`
	AllocsPerOp int64   `json:"allocs_op,omitempty"`

	// Deterministic work counters the simulator benchmarks report as
	// custom metrics (sim-cycles, events/op, handoffs/op).
	SimCycles     int64 `json:"sim_cycles,omitempty"`
	EventsPerOp   int64 `json:"events_op,omitempty"`
	HandoffsPerOp int64 `json:"handoffs_op,omitempty"`
}

func main() {
	out := flag.String("o", "BENCH.json", "output file")
	flag.Parse()
	file, err := parse(os.Stdin)
	if err != nil {
		fmt.Fprintln(os.Stderr, "benchjson:", err)
		os.Exit(1)
	}
	if len(file.Benchmarks) == 0 {
		fmt.Fprintln(os.Stderr, "benchjson: no benchmark lines on stdin")
		os.Exit(1)
	}
	// Run by `go run` on the same host and toolchain as the benchmarks.
	file.Host.NumCPU = runtime.NumCPU()
	file.Host.GoVersion = runtime.Version()
	data, err := json.MarshalIndent(file, "", "  ")
	if err != nil {
		fmt.Fprintln(os.Stderr, "benchjson:", err)
		os.Exit(1)
	}
	if err := os.WriteFile(*out, append(data, '\n'), 0o644); err != nil {
		fmt.Fprintln(os.Stderr, "benchjson:", err)
		os.Exit(1)
	}
	fmt.Fprintf(os.Stderr, "benchjson: wrote %d results to %s\n", len(file.Benchmarks), *out)
}

// parse scans stdin for benchmark result lines of the form
//
//	BenchmarkName-8   10   123456 ns/op   512 B/op   7 allocs/op
//
// plus the work-counter metrics named in Bench, echoing every line through
// so the human-readable stream survives. The host's GOMAXPROCS comes from
// the name suffix and its CPU model from go test's "cpu:" header line.
func parse(f *os.File) (File, error) {
	var file File
	sc := bufio.NewScanner(f)
	sc.Buffer(make([]byte, 1024*1024), 1024*1024)
	for sc.Scan() {
		line := sc.Text()
		fmt.Println(line)
		if cpu, ok := strings.CutPrefix(line, "cpu: "); ok {
			file.Host.CPU = cpu
			continue
		}
		fields := strings.Fields(line)
		if len(fields) < 4 || !strings.HasPrefix(fields[0], "Benchmark") {
			continue
		}
		iters, err := strconv.ParseInt(fields[1], 10, 64)
		if err != nil {
			continue
		}
		name, procs := trimProcs(fields[0])
		file.Host.GOMAXPROCS = procs
		b := Bench{Name: name, Iterations: iters}
		for i := 2; i+1 < len(fields); i += 2 {
			val := fields[i]
			switch fields[i+1] {
			case "ns/op":
				b.NsPerOp, err = strconv.ParseFloat(val, 64)
			case "B/op":
				b.BytesPerOp, err = strconv.ParseInt(val, 10, 64)
			case "allocs/op":
				b.AllocsPerOp, err = strconv.ParseInt(val, 10, 64)
			case "sim-cycles":
				b.SimCycles, err = parseCount(val)
			case "events/op":
				b.EventsPerOp, err = parseCount(val)
			case "handoffs/op":
				b.HandoffsPerOp, err = parseCount(val)
			default:
				continue
			}
			if err != nil {
				return File{}, fmt.Errorf("bad value %q in %q: %v", val, line, err)
			}
		}
		file.Benchmarks = append(file.Benchmarks, b)
	}
	return file, sc.Err()
}

// trimProcs splits off the -GOMAXPROCS suffix go test appends to benchmark
// names (it appends none at GOMAXPROCS=1), so baselines recorded on hosts
// with different core counts still match by name. It returns the bare
// name and the GOMAXPROCS the suffix records.
func trimProcs(name string) (string, int) {
	if i := strings.LastIndexByte(name, '-'); i > 0 {
		if n, err := strconv.Atoi(name[i+1:]); err == nil {
			return name[:i], n
		}
	}
	return name, 1
}

// parseCount reads an integer count that the testing package printed as a
// float (ReportMetric values are float64).
func parseCount(val string) (int64, error) {
	f, err := strconv.ParseFloat(val, 64)
	return int64(math.Round(f)), err
}
