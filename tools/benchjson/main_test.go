package main

import (
	"os"
	"path/filepath"
	"testing"
)

func TestParseWorkCounters(t *testing.T) {
	path := filepath.Join(t.TempDir(), "bench.txt")
	text := "BenchmarkFig2CG/SlipG0-2   3   66028519 ns/op   208987 events/op   208987 handoffs/op   191028 sim-cycles   6665712 B/op   2225 allocs/op\n" +
		"BenchmarkTable1Params-2   3   5102 ns/op   797 B/op   7 allocs/op\n"
	if err := os.WriteFile(path, []byte(text), 0o644); err != nil {
		t.Fatal(err)
	}
	f, err := os.Open(path)
	if err != nil {
		t.Fatal(err)
	}
	defer f.Close()
	got, err := parse(f)
	if err != nil {
		t.Fatal(err)
	}
	want := []Bench{
		{Name: "BenchmarkFig2CG/SlipG0", Iterations: 3, NsPerOp: 66028519, BytesPerOp: 6665712, AllocsPerOp: 2225,
			SimCycles: 191028, EventsPerOp: 208987, HandoffsPerOp: 208987},
		{Name: "BenchmarkTable1Params", Iterations: 3, NsPerOp: 5102, BytesPerOp: 797, AllocsPerOp: 7},
	}
	if len(got) != len(want) {
		t.Fatalf("parsed %d rows, want %d: %+v", len(got), len(want), got)
	}
	for i := range want {
		if got[i] != want[i] {
			t.Errorf("row %d = %+v, want %+v", i, got[i], want[i])
		}
	}
}

func TestTrimProcs(t *testing.T) {
	for in, want := range map[string]string{
		"BenchmarkFig2CG/SlipG0-4":             "BenchmarkFig2CG/SlipG0",
		"BenchmarkFig2CG/SlipG0":               "BenchmarkFig2CG/SlipG0", // GOMAXPROCS=1
		"BenchmarkAblationTopology/mesh-2d":    "BenchmarkAblationTopology/mesh-2d",
		"BenchmarkAblationTopology/mesh-2d-16": "BenchmarkAblationTopology/mesh-2d",
	} {
		if got := trimProcs(in); got != want {
			t.Errorf("trimProcs(%q) = %q, want %q", in, got, want)
		}
	}
}
