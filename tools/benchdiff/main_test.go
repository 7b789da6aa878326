package main

import (
	"os"
	"path/filepath"
	"testing"
)

func metricsOf(rows []Bench) map[string]*metrics { return aggregate(rows) }

func TestAggregateMinOfN(t *testing.T) {
	m := metricsOf([]Bench{
		{Name: "BenchmarkX", Iterations: 3, NsPerOp: 120, BytesPerOp: 900, AllocsPerOp: 11},
		{Name: "BenchmarkX", Iterations: 5, NsPerOp: 100, BytesPerOp: 1000, AllocsPerOp: 10},
	})
	x := m["BenchmarkX"]
	if x == nil || x.rows != 2 {
		t.Fatalf("bad grouping: %+v", x)
	}
	if x.ns != 100 || x.bytes != 900 || x.allocs != 10 || x.iters != 3 {
		t.Fatalf("min-of-N wrong: %+v", x)
	}
}

func TestCompareGates(t *testing.T) {
	base := metricsOf([]Bench{{Name: "BenchmarkA", NsPerOp: 1000, AllocsPerOp: 100}})

	// Within tolerance: ok.
	cand := metricsOf([]Bench{{Name: "BenchmarkA", NsPerOp: 1050, AllocsPerOp: 105}})
	if f, failed := compare(base, cand, 0.10, 0.10); failed {
		t.Fatalf("within-tolerance run failed: %v", f)
	}

	// allocs/op over tolerance: fail.
	cand = metricsOf([]Bench{{Name: "BenchmarkA", NsPerOp: 1000, AllocsPerOp: 120}})
	if _, failed := compare(base, cand, 0.10, 0.10); !failed {
		t.Fatal("20 percent allocs regression passed a 10 percent gate")
	}

	// ns/op over tolerance: fail, and a looser ns-tol lets it pass.
	cand = metricsOf([]Bench{{Name: "BenchmarkA", NsPerOp: 1200, AllocsPerOp: 100}})
	if _, failed := compare(base, cand, 0.10, 0.10); !failed {
		t.Fatal("20 percent ns regression passed a 10 percent gate")
	}
	if f, failed := compare(base, cand, 0.25, 0.10); failed {
		t.Fatalf("20 percent ns regression failed a 25 percent gate: %v", f)
	}

	// Missing benchmark: fail.
	if _, failed := compare(base, metricsOf([]Bench{{Name: "BenchmarkB", NsPerOp: 1}}), 0.10, 0.10); !failed {
		t.Fatal("dropped benchmark passed the ratchet")
	}

	// Improvements never fail.
	cand = metricsOf([]Bench{{Name: "BenchmarkA", NsPerOp: 10, AllocsPerOp: 1}})
	if f, failed := compare(base, cand, 0.10, 0.10); failed {
		t.Fatalf("improvement failed the ratchet: %v", f)
	}
}

func TestZeroAllocBaselineStaysZero(t *testing.T) {
	base := metricsOf([]Bench{{Name: "BenchmarkZ", NsPerOp: 100, AllocsPerOp: 0}})
	cand := metricsOf([]Bench{{Name: "BenchmarkZ", NsPerOp: 100, AllocsPerOp: 1}})
	if _, failed := compare(base, cand, 0.10, 0.10); !failed {
		t.Fatal("0 -> 1 allocs/op passed the ratchet")
	}
}

func TestWorkCountersGateExact(t *testing.T) {
	row := Bench{Name: "BenchmarkW", NsPerOp: 100, AllocsPerOp: 10, SimCycles: 5000, EventsPerOp: 800, HandoffsPerOp: 700}
	base := metricsOf([]Bench{row})
	if f, failed := compare(base, metricsOf([]Bench{row, row}), 0.10, 0.10); failed {
		t.Fatalf("identical counters failed: %v", f)
	}
	for _, mut := range []func(*Bench){
		func(b *Bench) { b.SimCycles++ },
		func(b *Bench) { b.EventsPerOp-- }, // fewer is a change too
		func(b *Bench) { b.HandoffsPerOp = 0 },
	} {
		cand := row
		mut(&cand)
		if _, failed := compare(base, metricsOf([]Bench{cand}), 0.10, 0.10); !failed {
			t.Fatalf("counter change %+v passed the exact gate", cand)
		}
	}
	// A baseline without counters gates nothing on them.
	old := metricsOf([]Bench{{Name: "BenchmarkW", NsPerOp: 100, AllocsPerOp: 10}})
	if f, failed := compare(old, metricsOf([]Bench{row}), 0.10, 0.10); failed {
		t.Fatalf("counters gated against a baseline that lacks them: %v", f)
	}
}

func TestLatestBaseline(t *testing.T) {
	dir := t.TempDir()
	for _, name := range []string{"BENCH_PR2.json", "BENCH_PR6.json", "BENCH_PR10.json", "BENCH_candidate.json", "notes.json"} {
		if err := os.WriteFile(filepath.Join(dir, name), []byte("[]"), 0o644); err != nil {
			t.Fatal(err)
		}
	}
	got, err := latestBaseline(dir)
	if err != nil {
		t.Fatal(err)
	}
	if filepath.Base(got) != "BENCH_PR10.json" {
		t.Fatalf("latestBaseline picked %s, want BENCH_PR10.json", got)
	}
	if _, err := latestBaseline(t.TempDir()); err == nil {
		t.Fatal("empty dir should yield an error")
	}
}
