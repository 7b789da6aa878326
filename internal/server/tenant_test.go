package server

import (
	"encoding/json"
	"fmt"
	"net/http"
	"net/http/httptest"
	"strings"
	"sync"
	"testing"
	"time"
)

// submitAs posts a job with an API key and returns the raw response
// plus the decoded body (when 2xx).
func submitAs(t *testing.T, ts *httptest.Server, key, body string) (*http.Response, submitResponse) {
	t.Helper()
	req, err := http.NewRequest(http.MethodPost, ts.URL+"/jobs", strings.NewReader(body))
	if err != nil {
		t.Fatal(err)
	}
	req.Header.Set("Content-Type", "application/json")
	if key != "" {
		req.Header.Set("X-API-Key", key)
	}
	resp, err := http.DefaultClient.Do(req)
	if err != nil {
		t.Fatalf("POST /jobs: %v", err)
	}
	defer resp.Body.Close()
	var sr submitResponse
	if resp.StatusCode == http.StatusOK || resp.StatusCode == http.StatusCreated {
		if err := json.NewDecoder(resp.Body).Decode(&sr); err != nil {
			t.Fatalf("decode submit response: %v", err)
		}
	}
	return resp, sr
}

func specWithNodes(nodes int, priority string) string {
	if priority == "" {
		return fmt.Sprintf(`{"kind":"run","kernel":"CG","nodes":%d}`, nodes)
	}
	return fmt.Sprintf(`{"kind":"run","kernel":"CG","nodes":%d,"priority":%q}`, nodes, priority)
}

// TestTenantRateLimit429: a tenant past its token bucket gets 429 with
// a Retry-After header, while another tenant keeps submitting — and the
// response is distinct from the global 503 shed path.
func TestTenantRateLimit429(t *testing.T) {
	_, ts := newTestServer(t, Config{
		Workers: 1,
		Tenants: []TenantConfig{
			{Name: "metered", Key: "sk-metered", TenantLimits: TenantLimits{Rate: 0.001, Burst: 2}},
		},
	})
	for i := 0; i < 2; i++ {
		resp, _ := submitAs(t, ts, "sk-metered", specWithNodes(2+i, ""))
		if resp.StatusCode != http.StatusCreated {
			t.Fatalf("burst submission %d = %d", i, resp.StatusCode)
		}
	}
	resp, _ := submitAs(t, ts, "sk-metered", specWithNodes(9, ""))
	if resp.StatusCode != http.StatusTooManyRequests {
		t.Fatalf("over-rate submission = %d, want 429", resp.StatusCode)
	}
	if ra := resp.Header.Get("Retry-After"); ra == "" {
		t.Fatal("429 missing Retry-After header")
	}
	// Another tenant is unaffected by metered's exhaustion.
	resp, _ = submitAs(t, ts, "sk-other", specWithNodes(10, ""))
	if resp.StatusCode != http.StatusCreated {
		t.Fatalf("other tenant = %d, want 201", resp.StatusCode)
	}
	// The refusal shows up on /metrics as a per-tenant counter.
	body, _ := getBody(t, ts.URL+"/metrics")
	for _, line := range []string{
		`slipd_tenant_limited_total{tenant="metered",reason="rate"} 1`,
		`slipd_tenant_admitted_total{tenant="metered"} 2`,
	} {
		if !strings.Contains(body, line) {
			t.Errorf("metrics missing %q", line)
		}
	}
}

// TestTenantBacklog429 pins the bounded-backlog refusal: overflow is a
// 429 with Retry-After, not a global 503.
func TestTenantBacklog429(t *testing.T) {
	s, ts := newTestServer(t, Config{
		Workers: 1,
		Tenants: []TenantConfig{
			{Name: "bounded", Key: "sk-bounded", TenantLimits: TenantLimits{Backlog: 2}},
		},
	})
	gate := make(chan struct{})
	running := make(chan struct{}, 1)
	s.testBeforeRun = func(*Job) {
		select {
		case running <- struct{}{}:
		default:
		}
		<-gate
	}
	defer close(gate)

	// One job occupies the worker; two more fill the backlog. The first
	// must leave the queue before the others arrive, or it still holds
	// a backlog slot.
	for i := 0; i < 3; i++ {
		resp, _ := submitAs(t, ts, "sk-bounded", specWithNodes(2+i, ""))
		if resp.StatusCode != http.StatusCreated {
			t.Fatalf("submission %d = %d", i, resp.StatusCode)
		}
		if i == 0 {
			select {
			case <-running:
			case <-time.After(10 * time.Second):
				t.Fatal("first job never started")
			}
		}
	}
	resp, _ := submitAs(t, ts, "sk-bounded", specWithNodes(20, ""))
	if resp.StatusCode != http.StatusTooManyRequests {
		t.Fatalf("backlog overflow = %d, want 429", resp.StatusCode)
	}
	if resp.Header.Get("Retry-After") == "" {
		t.Fatal("backlog 429 missing Retry-After")
	}
	body, _ := getBody(t, ts.URL+"/metrics")
	if !strings.Contains(body, `slipd_tenant_limited_total{tenant="bounded",reason="backlog"} 1`) {
		t.Fatalf("metrics missing backlog refusal:\n%s", body)
	}
}

// TestTenantStarvationRegression is the deterministic starvation drill:
// with one worker pinned and a 12-deep batch flood from one tenant, an
// interactive probe from another tenant is the very next dispatch.
func TestTenantStarvationRegression(t *testing.T) {
	s, ts := newTestServer(t, Config{Workers: 1})

	var mu sync.Mutex
	var order []string
	gate := make(chan struct{})
	var once sync.Once
	release := func() { once.Do(func() { close(gate) }) }
	defer release()
	first := true
	s.testBeforeRun = func(j *Job) {
		mu.Lock()
		order = append(order, j.tenant+"/"+PriorityName(j.priority))
		hold := first
		first = false
		mu.Unlock()
		if hold {
			<-gate // pin the worker so the queue builds up deterministically
		}
	}

	// Plug job, then the flood — all batch, all from the flood tenant.
	plug, _ := submitAs(t, ts, "sk-flood", specWithNodes(2, "batch"))
	if plug.StatusCode != http.StatusCreated {
		t.Fatalf("plug = %d", plug.StatusCode)
	}
	for i := 0; i < 12; i++ {
		resp, _ := submitAs(t, ts, "sk-flood", specWithNodes(3+i, "batch"))
		if resp.StatusCode != http.StatusCreated {
			t.Fatalf("flood %d = %d", i, resp.StatusCode)
		}
	}
	resp, probe := submitAs(t, ts, "sk-probe", specWithNodes(16, ""))
	if resp.StatusCode != http.StatusCreated {
		t.Fatalf("probe = %d", resp.StatusCode)
	}
	release()
	j := await(t, s, probe.Job.ID)
	if st := j.stateNow(); st != StateDone {
		t.Fatalf("probe state = %s", st)
	}
	mu.Lock()
	got := append([]string(nil), order...)
	mu.Unlock()
	if len(got) < 2 || got[1] != "sk-probe/interactive" {
		t.Fatalf("dispatch order = %v; probe must run immediately after the plug", got)
	}
}

// TestPriorityPreemptionOrdering: within one tenant, an interactive job
// submitted last overtakes every queued batch job.
func TestPriorityPreemptionOrdering(t *testing.T) {
	s, ts := newTestServer(t, Config{Workers: 1})

	var mu sync.Mutex
	var order []string
	gate := make(chan struct{})
	var once sync.Once
	release := func() { once.Do(func() { close(gate) }) }
	defer release()
	first := true
	s.testBeforeRun = func(j *Job) {
		mu.Lock()
		order = append(order, PriorityName(j.priority))
		hold := first
		first = false
		mu.Unlock()
		if hold {
			<-gate
		}
	}

	submitAs(t, ts, "", specWithNodes(2, "batch")) // plug
	for i := 0; i < 5; i++ {
		submitAs(t, ts, "", specWithNodes(3+i, "batch"))
	}
	resp, probe := submitAs(t, ts, "", specWithNodes(16, "interactive"))
	if resp.StatusCode != http.StatusCreated {
		t.Fatalf("probe = %d", resp.StatusCode)
	}
	release()
	await(t, s, probe.Job.ID)
	mu.Lock()
	got := append([]string(nil), order...)
	mu.Unlock()
	if len(got) < 2 || got[1] != "interactive" {
		t.Fatalf("dispatch order = %v; interactive must preempt the queued batch work", got)
	}
}

// TestPriorityNotInCacheKey: the same spec at different priorities maps
// to one cache entry — priority changes when a job runs, not what it
// produces.
func TestPriorityNotInCacheKey(t *testing.T) {
	s, ts := newTestServer(t, Config{Workers: 1})
	resp, first := submitAs(t, ts, "", specWithNodes(4, "interactive"))
	if resp.StatusCode != http.StatusCreated {
		t.Fatalf("first = %d", resp.StatusCode)
	}
	await(t, s, first.Job.ID)
	resp, second := submitAs(t, ts, "", specWithNodes(4, "batch"))
	if resp.StatusCode != http.StatusCreated || !second.Cached {
		t.Fatalf("second = %d cached=%v, want cache hit across priorities", resp.StatusCode, second.Cached)
	}
}

// TestDedupPromotesPriority: an interactive submission coalescing onto
// a queued batch job lifts that job ahead of batch work queued before
// it (placement promotion — the job's recorded spec keeps its class).
func TestDedupPromotesPriority(t *testing.T) {
	s, ts := newTestServer(t, Config{Workers: 1})

	var mu sync.Mutex
	var order []string
	gate := make(chan struct{})
	var once sync.Once
	release := func() { once.Do(func() { close(gate) }) }
	defer release()
	first := true
	s.testBeforeRun = func(j *Job) {
		mu.Lock()
		order = append(order, j.ID)
		hold := first
		first = false
		mu.Unlock()
		if hold {
			<-gate
		}
	}

	submitAs(t, ts, "", specWithNodes(2, "batch")) // plug
	_, filler := submitAs(t, ts, "", specWithNodes(8, "batch"))
	respA, a := submitAs(t, ts, "", specWithNodes(7, "batch"))
	if respA.StatusCode != http.StatusCreated {
		t.Fatalf("batch submit = %d", respA.StatusCode)
	}
	respB, b := submitAs(t, ts, "", specWithNodes(7, "interactive"))
	if respB.StatusCode != http.StatusOK || !b.Dedup || b.Job.ID != a.Job.ID {
		t.Fatalf("dedup submit = %d dedup=%v id=%s/%s", respB.StatusCode, b.Dedup, b.Job.ID, a.Job.ID)
	}
	release()
	await(t, s, filler.Job.ID)
	mu.Lock()
	got := append([]string(nil), order...)
	mu.Unlock()
	// Without promotion the order would be plug, filler, a.
	if len(got) != 3 || got[1] != a.Job.ID || got[2] != filler.Job.ID {
		t.Fatalf("dispatch order = %v; promoted job %s must overtake filler %s", got, a.Job.ID, filler.Job.ID)
	}
}

// TestTenantMetricsAndJobView: tenant identity lands on the job view
// and the tenant gauge series appear on /metrics.
func TestTenantMetricsAndJobView(t *testing.T) {
	s, ts := newTestServer(t, Config{
		Workers: 1,
		Tenants: []TenantConfig{{Name: "acme", Key: "sk-acme", TenantLimits: TenantLimits{Weight: 4}}},
	})
	resp, sr := submitAs(t, ts, "sk-acme", runSpecBody)
	if resp.StatusCode != http.StatusCreated {
		t.Fatalf("submit = %d", resp.StatusCode)
	}
	if sr.Job.Tenant != "acme" {
		t.Fatalf("job view tenant = %q", sr.Job.Tenant)
	}
	await(t, s, sr.Job.ID)
	body, _ := getBody(t, ts.URL+"/metrics")
	for _, line := range []string{
		`slipd_tenant_weight{tenant="acme"} 4`,
		`slipd_tenant_dispatched_total{tenant="acme"} 1`,
	} {
		if !strings.Contains(body, line) {
			t.Errorf("metrics missing %q\n%s", line, body)
		}
	}
}
