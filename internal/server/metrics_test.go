package server

import (
	"flag"
	"os"
	"path/filepath"
	"testing"
)

var update = flag.Bool("update", false, "rewrite the golden files under testdata/")

// The coordinator-mode /metrics exposition, byte for byte, on a fresh
// server whose cluster backend reports fixed stats and two peers. It
// pins the series a coordinator exposes — names, help text, label sets
// and order — so a removed or renamed series is a deliberate change.
// Regenerate with: go test ./internal/server -run TestMetricsCoordinatorGolden -update
func TestMetricsCoordinatorGolden(t *testing.T) {
	_, ts := newTestServer(t, Config{Workers: 1, Cluster: &fakeCluster{}})
	got, status := getBody(t, ts.URL+"/metrics")
	if status != 200 {
		t.Fatalf("GET /metrics = %d", status)
	}
	path := filepath.Join("testdata", "metrics_coordinator.golden")
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
		t.Fatalf("coordinator /metrics differs from %s (regenerate with -update if intended):\n--- got ---\n%s--- want ---\n%s", path, got, want)
	}
}
