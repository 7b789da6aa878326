package main

import (
	"encoding/json"
	"fmt"
	"math"
	"net/http"
	"net/http/httptest"
	"os"
	"path/filepath"
	"reflect"
	"strings"
	"testing"
	"time"
)

func TestTailPercentile(t *testing.T) {
	for _, c := range []struct {
		n    int
		want float64
	}{
		{10000, 99.9}, {9999, 99}, {2000, 99}, {1000, 99}, {999, 95},
		{200, 95}, {120, 90}, {100, 90}, {99, 80}, {28, 60}, {20, 50}, {19, 0}, {0, 0},
	} {
		if got := tailPercentile(c.n); got != c.want {
			t.Errorf("tailPercentile(%d) = %g, want %g", c.n, got, c.want)
		}
		if p := tailPercentile(c.n); p > 0 && float64(c.n)*(100-p)/100 < 10-1e-9 {
			t.Errorf("n=%d: p%g leaves fewer than ten samples beyond it", c.n, p)
		}
	}
}

func TestQuantileInterpolates(t *testing.T) {
	xs := []float64{5, 1, 4, 2, 3, 6, 7, 8, 9, 10}
	for _, c := range []struct{ p, want float64 }{{0, 1}, {50, 5.5}, {90, 9.1}, {100, 10}} {
		if got := quantile(xs, c.p); math.Abs(got-c.want) > 1e-9 {
			t.Errorf("p%g = %g, want %g", c.p, got, c.want)
		}
	}
	if got := median([]float64{14, 16}); got != 15 {
		t.Errorf("median of two = %g, want their mean", got)
	}
	if !math.IsNaN(quantile(nil, 50)) {
		t.Error("quantile of no samples is not NaN")
	}
}

// The arrival schedule is a function of the seed alone, offers exactly
// the planned number of hits and misses, and hands each miss a distinct
// position in the miss stream.
func TestScheduleSeeded(t *testing.T) {
	nHits, nMisses := loadCounts(20)
	a := schedule(7, 20, nHits, nMisses, 10)
	b := schedule(7, 20, nHits, nMisses, 10)
	if !reflect.DeepEqual(a, b) {
		t.Fatal("same seed gave different schedules")
	}
	if reflect.DeepEqual(a, schedule(8, 20, nHits, nMisses, 10)) {
		t.Fatal("different seeds gave the same schedule")
	}
	hits, misses := 0, map[int]bool{}
	for i, x := range a {
		if x.due < 0 || x.due >= 20*time.Second || (i > 0 && x.due < a[i-1].due) {
			t.Fatalf("arrival %d due %v out of order or outside the window", i, x.due)
		}
		if x.miss {
			if misses[x.spec] {
				t.Fatalf("miss stream position %d used twice", x.spec)
			}
			misses[x.spec] = true
		} else {
			hits++
			if x.spec < 0 || x.spec >= 10 {
				t.Fatalf("hit spec %d outside the hot set", x.spec)
			}
		}
	}
	if hits != 2000 || len(misses) != 135 {
		t.Fatalf("got %d hits and %d misses, want 2000 and 135 (three blocks of 45)", hits, len(misses))
	}
}

// The miss stream is a function of the seed, never repeats a spec within
// a run, never hits the hot set or canary, and keeps every kernel equally
// represented in each block.
func TestSpecStreamUniqueAndSeeded(t *testing.T) {
	nodes := []int{2, 4, 8}
	a := specStream(3, 400, nodes)
	if !reflect.DeepEqual(a, specStream(3, 400, nodes)) {
		t.Fatal("same seed gave different streams")
	}
	if reflect.DeepEqual(a, specStream(4, 400, nodes)) {
		t.Fatal("different seeds gave the same stream")
	}
	seen := map[string]bool{}
	for _, s := range append(hotSet(), fleetCanary) {
		seen[s.String()] = true
	}
	for i, s := range a {
		if seen[s.String()] {
			t.Fatalf("spec %d (%s) repeats or collides with the hot set", i, s)
		}
		seen[s.String()] = true
	}
	// Whole blocks hold the same mix for every seed.
	mix := func(specs []runSpec) map[string]int {
		m := map[string]int{}
		for _, s := range specs {
			m[fmt.Sprintf("%s/%s/%d", s.Kernel, s.Mode, s.Nodes)]++
		}
		return m
	}
	n := 3 * blockSize(nodes)
	if !reflect.DeepEqual(mix(a[:n]), mix(specStream(4, n, nodes))) {
		t.Error("two seeds drew whole blocks with different mixes")
	}
}

func TestCorruptedReferenceIsAFailure(t *testing.T) {
	ref, err := os.ReadFile(filepath.Join("testdata", "figures_test4.txt"))
	if err != nil {
		t.Fatal(err)
	}
	sr := &suiteRun{rendered: append([]byte(nil), ref...)}
	r := newResult()
	sr.check(r, ref, "intact")
	if r.failed != 0 || r.attempted != 1 {
		t.Fatalf("intact rendering: failed %d of %d", r.failed, r.attempted)
	}
	bad := append([]byte(nil), ref...)
	bad[len(bad)/2] ^= 1
	for name, corrupt := range map[string][]byte{"flipped byte": bad, "truncated": ref[:len(ref)-1], "missing": nil} {
		r := newResult()
		sr.check(r, corrupt, name)
		if r.failed != 1 {
			t.Errorf("%s reference: %d failures, want 1", name, r.failed)
		}
	}
}

// A canary whose bytes do not match the committed digest, or that lacks
// the verification line, counts as a failed operation.
func TestCorruptedDigestIsAFailure(t *testing.T) {
	body := "cycles: 100\nverification: PASSED (matches serial reference)\n"
	srv := httptest.NewServer(http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
		switch {
		case r.Method == http.MethodPost && r.URL.Path == "/jobs":
			w.WriteHeader(http.StatusCreated)
			_ = json.NewEncoder(w).Encode(submitResp{Job: jobView{ID: "job-1", State: "done"}, Cached: true})
		case r.URL.Path == "/jobs/job-1/result":
			_, _ = w.Write([]byte(body))
		default:
			http.NotFound(w, r)
		}
	}))
	defer srv.Close()
	c := newClients()
	defer c.close()
	spec := hotSet()[0]
	for _, tc := range []struct {
		name    string
		digests map[string]string
		fails   int
	}{
		{"matching", map[string]string{spec.String(): digest([]byte(body))}, 0},
		{"corrupted", map[string]string{spec.String(): strings.Repeat("0", 64)}, 1},
		{"absent", map[string]string{}, 1},
	} {
		r := newResult()
		warm(r, c, srv.URL, spec, tc.digests)
		if r.failed != tc.fails || r.attempted != 1 {
			t.Errorf("%s digest: failed %d of %d, want %d of 1", tc.name, r.failed, r.attempted, tc.fails)
		}
	}
	if err := checkResult([]byte("cycles: 100\nverification: FAILED\n"), ""); err == nil {
		t.Error("a result without verification: PASSED was accepted")
	}
}

func TestMetricNames(t *testing.T) {
	seen := map[string]bool{}
	for _, d := range append(append([]metricDef{}, endToEnd...), perLayer...) {
		if !metricName.MatchString(d.name) || len(d.name) > 64 {
			t.Errorf("metric name %q is not [A-Za-z0-9_.-]+ of at most 64", d.name)
		}
		if seen[d.name] {
			t.Errorf("metric %q defined twice", d.name)
		}
		seen[d.name] = true
	}
	for _, p := range percentileLadder {
		for _, n := range []string{"hit_" + pname(p) + "_ms", "miss_" + pname(p) + "_ms"} {
			if !metricName.MatchString(n) {
				t.Errorf("named metric %q is not a valid name", n)
			}
		}
	}
}

// BENCHMARK.json must list exactly the metrics the program prints, with
// the same units.
func TestBenchmarkJSONMatchesProgram(t *testing.T) {
	b, err := os.ReadFile(filepath.Join("..", "BENCHMARK.json"))
	if err != nil {
		t.Fatal(err)
	}
	var spec struct {
		Workloads []struct{ Name string }       `json:"workloads"`
		EndToEnd  []struct{ Name, Unit string } `json:"end_to_end"`
		PerLayer  []struct{ Name, Unit string } `json:"per_layer"`
	}
	if err := json.Unmarshal(b, &spec); err != nil {
		t.Fatal(err)
	}
	same := func(kind string, got []struct{ Name, Unit string }, want []metricDef) {
		if len(got) != len(want) {
			t.Errorf("%s: BENCHMARK.json lists %d metrics, the program %d", kind, len(got), len(want))
			return
		}
		for i := range want {
			if got[i].Name != want[i].name || got[i].Unit != want[i].unit {
				t.Errorf("%s[%d]: BENCHMARK.json %s/%s, program %s/%s", kind, i, got[i].Name, got[i].Unit, want[i].name, want[i].unit)
			}
		}
	}
	same("end_to_end", spec.EndToEnd, endToEnd)
	same("per_layer", spec.PerLayer, perLayer)
	for _, w := range spec.Workloads {
		if workloads[w.Name] == nil {
			t.Errorf("BENCHMARK.json workload %q has no runner", w.Name)
		}
	}
}

// A series the daemon no longer exposes reads as absent, not as zero.
func TestPromAbsentSeries(t *testing.T) {
	p, err := parseProm(strings.NewReader("# HELP x\nslipd_claims_total{outcome=\"granted\"} 3\nslipd_claims_total{outcome=\"done\"} 2\nslipd_journal_bytes 10\n"))
	if err != nil {
		t.Fatal(err)
	}
	if v, ok := p.sum("slipd_claims_total"); !ok || v != 5 {
		t.Errorf("sum(slipd_claims_total) = %g, %v", v, ok)
	}
	if _, ok := p.sum("slipd_hedges_started_total"); ok {
		t.Error("an unexposed series read as present")
	}
	if _, ok := p.sum("slipd_journal"); ok {
		t.Error("a name prefix matched a longer series name")
	}
}

// The fleet runs a fixed number of whole blocks set by the session length
// alone, and the slipd tour offers the slipd workload's own rates.
func TestFixedWorkSizes(t *testing.T) {
	bs := blockSize(fleetNodes)
	if n := fleetJobs(30); n != 900 || n%bs != 0 {
		t.Errorf("fleetJobs(30) = %d, want 900 (60 blocks of %d)", n, bs)
	}
	if n := fleetJobs(0.1); n != bs {
		t.Errorf("fleetJobs(0.1) = %d, want one block of %d", n, bs)
	}
	secs := slipdTourSecs()
	hits, misses := loadCounts(secs)
	if math.Abs(float64(misses)/secs-missRate) > 1e-9 || math.Abs(float64(hits)/secs-hitRate) > 1e-9 {
		t.Errorf("slipd tour offers %g hits/s and %g misses/s, want %g and %g",
			float64(hits)/secs, float64(misses)/secs, hitRate, missRate)
	}
}
