package server

import (
	"encoding/json"
	"flag"
	"fmt"
	"net/http"
	"os"
	"path/filepath"
	"strconv"
	"strings"
	"testing"
	"time"
	"unicode/utf8"

	"repro/internal/store"
)

var update = flag.Bool("update", false, "rewrite the golden files under testdata/")

// The coordinator-mode /metrics exposition, byte for byte, on a fresh
// server whose cluster backend reports fixed stats and two peers. It
// pins the series a coordinator exposes — names, help text, label sets
// and order — so a removed or renamed series is a deliberate change.
// Regenerate with: go test ./internal/server -run TestMetricsCoordinatorGolden -update
func TestMetricsCoordinatorGolden(t *testing.T) {
	_, ts := newTestServer(t, Config{Workers: 1, Cluster: &fakeCluster{}})
	checkMetricsGolden(t, ts.URL, "metrics_coordinator.golden")
}

// checkMetricsGolden compares a server's /metrics body with a golden
// file under testdata/, rewriting the file first under -update.
func checkMetricsGolden(t *testing.T, base, name string) {
	t.Helper()
	got, status := getBody(t, base+"/metrics")
	if status != 200 {
		t.Fatalf("GET /metrics = %d", status)
	}
	if err := checkExposition(got); err != nil {
		t.Fatal(err)
	}
	path := filepath.Join("testdata", name)
	if *update {
		if err := os.MkdirAll("testdata", 0o755); err != nil {
			t.Fatal(err)
		}
		if err := os.WriteFile(path, []byte(got), 0o644); err != nil {
			t.Fatal(err)
		}
	}
	want, err := os.ReadFile(path)
	if err != nil {
		t.Fatalf("read golden (regenerate with -update): %v", err)
	}
	if got != string(want) {
		t.Fatalf("/metrics differs from %s (regenerate with -update if intended):\n--- got ---\n%s--- want ---\n%s", path, got, want)
	}
}

// The plain-server /metrics exposition, byte for byte, after a fixed
// sequence that touches every non-coordinator family: two declared
// tenants and one undeclared key, a done run, a cache hit, a dedup, a
// cancelled queued job, a cancelled campaign with a collapsed, a
// cancelled and a skipped cell, and a job held queued by the worker's
// testBeforeRun hook. Run latencies are wall clock, so the histogram is
// refilled with fixed durations before the scrape.
// Regenerate with: go test ./internal/server -run TestMetricsServerGolden -update
func TestMetricsServerGolden(t *testing.T) {
	s, ts := newTestServer(t, Config{
		Workers: 1,
		Tenants: []TenantConfig{
			{Name: "alpha", Key: "sk-alpha", TenantLimits: TenantLimits{Weight: 2}},
			{Name: "beta", Key: "sk-beta", TenantLimits: TenantLimits{Weight: 3, Backlog: 4}},
		},
	})
	entered := make(chan struct{})
	release := make(chan struct{})
	s.testBeforeRun = func(j *Job) {
		if j.tenant == "beta" {
			close(entered)
			<-release
		}
	}
	defer close(release)

	// A done run; its event stream closes only after the latency
	// observation, so the histogram reset below cannot race it.
	resp, sr := submitAs(t, ts, "sk-alpha", runSpecBody)
	if resp.StatusCode != http.StatusCreated {
		t.Fatalf("first run = %d", resp.StatusCode)
	}
	if j := await(t, s, sr.Job.ID); j.stateNow() != StateDone {
		t.Fatalf("first run = %+v", j.snapshot())
	}
	getBody(t, ts.URL+"/jobs/"+sr.Job.ID+"/events")

	// The same spec again is a cache hit.
	if resp, sr = submitAs(t, ts, "sk-alpha", runSpecBody); !sr.Cached {
		t.Fatalf("resubmission = %d %+v, want a cache hit", resp.StatusCode, sr)
	}

	// beta's job is held at the worker, still queued; an identical
	// submission dedups onto it.
	if resp, _ = submitAs(t, ts, "sk-beta", specWithNodes(2, "")); resp.StatusCode != http.StatusCreated {
		t.Fatalf("held job = %d", resp.StatusCode)
	}
	<-entered
	if resp, sr = submitAs(t, ts, "sk-beta", specWithNodes(2, "")); !sr.Dedup {
		t.Fatalf("identical submission = %d %+v, want a dedup", resp.StatusCode, sr)
	}

	// An undeclared key is its own tenant; its job is cancelled queued.
	resp, sr = submitAs(t, ts, "sk-guest", specWithNodes(3, ""))
	if resp.StatusCode != http.StatusCreated {
		t.Fatalf("guest job = %d", resp.StatusCode)
	}
	deleteOK(t, ts.URL+"/jobs/"+sr.Job.ID)

	// Campaign a → b → c: a is a cache hit, b queues behind the held
	// job, c is pending. Cancelling fails b and skips c.
	body := `{"cells":[` + campCellBody("a", 4) + "," + campCellBody("b", 5, "a") + "," + campCellBody("c", 6, "b") + "]}"
	resp, cv := postCampaign(t, ts, "sk-alpha", body)
	if resp.StatusCode != http.StatusCreated {
		t.Fatalf("campaign = %d", resp.StatusCode)
	}
	deadline := time.Now().Add(60 * time.Second)
	for cellState(t, getCampaign(t, ts, cv.ID), "b").Job == "" {
		if time.Now().After(deadline) {
			t.Fatal("campaign cell b never launched")
		}
		time.Sleep(5 * time.Millisecond)
	}
	deleteOK(t, ts.URL+"/campaigns/"+cv.ID)
	if final := awaitCampaign(t, ts, cv.ID); final.DoneCells != 1 || final.FailedCells != 1 || final.SkippedCells != 1 {
		t.Fatalf("campaign rollup = %+v", final)
	}

	s.metrics.mu.Lock()
	s.metrics.latency = map[string]*histogram{}
	s.metrics.mu.Unlock()
	for _, d := range []time.Duration{40 * time.Millisecond, 1500 * time.Millisecond} {
		s.metrics.observeLatency("CG", d)
	}
	s.metrics.observeLatency("static", 75*time.Second)

	checkMetricsGolden(t, ts.URL, "metrics_server.golden")
}

func deleteOK(t *testing.T, url string) {
	t.Helper()
	req, _ := http.NewRequest(http.MethodDelete, url, nil)
	resp, err := http.DefaultClient.Do(req)
	if err != nil {
		t.Fatal(err)
	}
	resp.Body.Close()
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("DELETE %s = %d", url, resp.StatusCode)
	}
}

// checkExposition parses a /metrics body under the Prometheus text
// format's rules: comment lines, then `name{label="value",...} number`,
// valid UTF-8 throughout, and no escapes in label values other than
// \\, \" and \n.
func checkExposition(body string) error {
	if !utf8.ValidString(body) {
		return fmt.Errorf("exposition is not valid UTF-8")
	}
	isName := func(r rune, first bool) bool {
		return r == '_' || r == ':' || (r >= 'a' && r <= 'z') || (r >= 'A' && r <= 'Z') || (!first && r >= '0' && r <= '9')
	}
	for n, line := range strings.Split(strings.TrimSuffix(body, "\n"), "\n") {
		bad := func(why string) error { return fmt.Errorf("line %d %q: %s", n+1, line, why) }
		if strings.HasPrefix(line, "# HELP ") || strings.HasPrefix(line, "# TYPE ") {
			continue
		}
		i := 0
		for i < len(line) && isName(rune(line[i]), i == 0) {
			i++
		}
		if i == 0 {
			return bad("no metric name")
		}
		if i < len(line) && line[i] == '{' {
			i++
			for {
				start := i
				for i < len(line) && isName(rune(line[i]), i == start) {
					i++
				}
				if i == start || !strings.HasPrefix(line[i:], `="`) {
					return bad("malformed label name")
				}
				for i += 2; i < len(line) && line[i] != '"'; i++ {
					if line[i] == '\\' {
						i++
						if i == len(line) || !strings.ContainsRune(`\"n`, rune(line[i])) {
							return bad("invalid escape in label value")
						}
					}
				}
				if i == len(line) {
					return bad("unterminated label value")
				}
				i++
				if i < len(line) && line[i] == ',' {
					i++
					continue
				}
				if i < len(line) && line[i] == '}' {
					i++
					break
				}
				return bad("malformed label set")
			}
		}
		if i >= len(line) || line[i] != ' ' {
			return bad("no value")
		}
		if _, err := strconv.ParseFloat(line[i+1:], 64); err != nil && line[i+1:] != "+Inf" {
			return bad("value is not a number")
		}
	}
	return nil
}

// TestMetricsLabelEscaping: an unrecognized API key names its own
// tenant, so label values carry client bytes. A key with a tab and an
// invalid UTF-8 byte, or with a quote and a backslash, must leave
// /metrics parseable: the only escapes are \\, \" and \n, and invalid
// UTF-8 becomes U+FFFD.
func TestMetricsLabelEscaping(t *testing.T) {
	_, ts := newTestServer(t, Config{Workers: 1})
	for i, key := range []string{"a\tb\xffc", `q"u\ote`} {
		if resp, _ := submitAs(t, ts, key, specWithNodes(2+i, "")); resp.StatusCode != http.StatusCreated {
			t.Fatalf("submit with key %q = %d", key, resp.StatusCode)
		}
	}
	body, _ := getBody(t, ts.URL+"/metrics")
	if err := checkExposition(body); err != nil {
		t.Fatal(err)
	}
	for _, want := range []string{
		"slipd_tenant_weight{tenant=\"a\tb\uFFFDc\"} 1\n",
		`slipd_tenant_weight{tenant="q\"u\\ote"} 1` + "\n",
	} {
		if !strings.Contains(body, want) {
			t.Errorf("/metrics lacks %q", want)
		}
	}
}

// TestJobGaugesMatchJobList: after a journal replay that requeues, a
// cache hit, a dedup, a cancel while queued, a cancel while running and
// a panic, the slipd_jobs gauges equal the state counts of GET /jobs —
// mid-sequence and at the end.
func TestJobGaugesMatchJobList(t *testing.T) {
	dir := t.TempDir()
	fabricateJournal(t, dir, store.Record{Job: "job-7", State: string(StateQueued), Attempts: 1, Spec: json.RawMessage(runSpecBody)})
	s, ts := openDurable(t, durableCfg(dir))
	defer shutdown(t, s)
	if j := await(t, s, "job-7"); j.stateNow() != StateDone || !j.snapshot().Restored {
		t.Fatalf("requeued job = %+v", j.snapshot())
	}

	running := make(chan struct{})
	release := make(chan struct{})
	s.testDuringRun = func(j *Job) {
		switch j.snapshot().Spec.Kernel {
		case "MG":
			close(running)
			<-release
		case "LU":
			panic("injected")
		}
	}
	check := func(want map[State]int) {
		t.Helper()
		list, _ := getBody(t, ts.URL+"/jobs")
		var jobs struct{ Jobs []JobView }
		if err := json.Unmarshal([]byte(list), &jobs); err != nil {
			t.Fatal(err)
		}
		listed := map[State]int{}
		for _, v := range jobs.Jobs {
			listed[v.State]++
		}
		body, _ := getBody(t, ts.URL+"/metrics")
		for _, st := range []State{StateQueued, StateRunning, StateDone, StateFailed} {
			line := fmt.Sprintf("slipd_jobs{state=%q} %d\n", st, listed[st])
			if !strings.Contains(body, line) {
				t.Errorf("GET /jobs has %d %s jobs but /metrics lacks %q", listed[st], st, line)
			}
			if listed[st] != want[st] {
				t.Errorf("GET /jobs has %d %s jobs, want %d", listed[st], st, want[st])
			}
		}
	}

	if _, sr := submitAs(t, ts, "", runSpecBody); !sr.Cached {
		t.Fatalf("resubmitting the replayed spec = %+v, want a cache hit", sr)
	}
	_, mg := submitAs(t, ts, "", `{"kind":"run","kernel":"MG","nodes":4}`)
	<-running
	_, sp := submitAs(t, ts, "", `{"kind":"run","kernel":"SP","nodes":4}`)
	if _, sr := submitAs(t, ts, "", `{"kind":"run","kernel":"SP","nodes":4}`); !sr.Dedup {
		t.Fatalf("identical submission = %+v, want a dedup", sr)
	}
	check(map[State]int{StateQueued: 1, StateRunning: 1, StateDone: 2})

	deleteOK(t, ts.URL+"/jobs/"+sp.Job.ID)
	deleteOK(t, ts.URL+"/jobs/"+mg.Job.ID)
	close(release)
	if j := await(t, s, mg.Job.ID); j.stateNow() != StateFailed {
		t.Fatalf("job cancelled while running = %+v", j.snapshot())
	}
	_, lu := submitAs(t, ts, "", `{"kind":"run","kernel":"LU","nodes":4}`)
	if j := await(t, s, lu.Job.ID); !strings.Contains(j.snapshot().Error, "panic") {
		t.Fatalf("panicking job = %+v", j.snapshot())
	}
	check(map[State]int{StateDone: 2, StateFailed: 3})
}
