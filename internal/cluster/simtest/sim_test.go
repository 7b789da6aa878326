package simtest

import (
	"fmt"
	"strings"
	"testing"
	"time"

	"repro/internal/faults/splitmix"
)

// planFor builds just enough harness to generate a schedule plan
// without starting any nodes.
func planFor(opts Options) ([]event, []int, [][]string) {
	opts = opts.withDefaults()
	h := &harness{
		opts: opts,
		str:  splitmix.NewStream(splitmix.Mix64(opts.Seed ^ 0x5c4ed01e0f5eedf1)),
	}
	for i := 0; i < opts.Coordinators; i++ {
		h.coords = append(h.coords, &coordNode{name: fmt.Sprintf("c%d", i)})
	}
	for i := 0; i < opts.Workers; i++ {
		h.workers = append(h.workers, &workerNode{name: fmt.Sprintf("w%d", i)})
	}
	return h.plan()
}

// The schedule plan is a pure function of the seed: same seed, same
// events; different seeds diverge.
func TestPlanIsSeedDeterministic(t *testing.T) {
	opts := Options{Seed: 42}
	evA, coA, grA := planFor(opts)
	evB, coB, grB := planFor(opts)
	if fmt.Sprint(evA, coA, grA) != fmt.Sprint(evB, coB, grB) {
		t.Fatalf("same seed produced different plans:\n%v %v %v\n%v %v %v", evA, coA, grA, evB, coB, grB)
	}
	evC, coC, grC := planFor(Options{Seed: 43})
	if fmt.Sprint(evA, coA, grA) == fmt.Sprint(evC, coC, grC) {
		t.Fatal("seeds 42 and 43 produced identical plans")
	}
}

// Coordinator crash windows must be disjoint so the schedule never
// takes the whole control plane down at once.
func TestPlanCoordinatorCrashWindowsDisjoint(t *testing.T) {
	for seed := uint64(1); seed <= 50; seed++ {
		evs, _, _ := planFor(Options{Seed: seed})
		down := -1
		for _, ev := range evs {
			switch ev.kind {
			case evCrashCoord:
				if down != -1 {
					t.Fatalf("seed %d: c%d crashes while c%d is still down", seed, ev.idx, down)
				}
				down = ev.idx
			case evRestartCoord:
				if down != ev.idx {
					t.Fatalf("seed %d: restart of c%d while down=%d", seed, ev.idx, down)
				}
				down = -1
			}
		}
		if down != -1 {
			t.Fatalf("seed %d: c%d never restarted inside the horizon", seed, down)
		}
	}
}

// A quiet network must settle with zero violations — the baseline that
// separates harness bugs from chaos-revealed bugs.
func TestChaosFreeBaselineConverges(t *testing.T) {
	rep, err := Run(Options{Seed: 1, NoChaos: true, Jobs: 6, Horizon: 250 * time.Millisecond, Logf: t.Logf})
	if err != nil {
		t.Fatal(err)
	}
	if !rep.OK() {
		t.Fatalf("baseline violations:\n%s", strings.Join(rep.Violations, "\n"))
	}
	if rep.Granted == 0 {
		t.Fatal("baseline granted no claims; the schedule exercised nothing")
	}
	if rep.ChaosInjected != 0 {
		t.Fatalf("NoChaos run injected %d faults", rep.ChaosInjected)
	}
	if rep.Fallbacks != 0 {
		t.Fatalf("quiet network fell back to local execution %d times; liveness misjudged a polling fleet", rep.Fallbacks)
	}
}

// The pure-replication topology: workers and client pinned to c0, the
// other coordinators learn everything via snapshot merge. Must
// converge — this is the control for the mutation test below.
func TestPinnedTopologyConvergesViaReplication(t *testing.T) {
	rep, err := Run(Options{Seed: 5, NoChaos: true, PinToFirst: true, Jobs: 4, Horizon: 200 * time.Millisecond, SettleTimeout: 10 * time.Second, Logf: t.Logf})
	if err != nil {
		t.Fatal(err)
	}
	if !rep.OK() {
		t.Fatalf("pinned topology violations:\n%s", strings.Join(rep.Violations, "\n"))
	}
	if rep.Fallbacks != 0 {
		t.Fatalf("quiet network fell back to local execution %d times; liveness misjudged a polling fleet", rep.Fallbacks)
	}
}

// The deliberately-broken build: identical topology, but peers drop
// incoming terminal records on merge. The invariant checker must flag
// it — a checker that can't catch a planted bug proves nothing.
func TestMergeMutationIsCaught(t *testing.T) {
	rep, err := Run(Options{Seed: 5, NoChaos: true, MutateMerge: true, Jobs: 4, Horizon: 200 * time.Millisecond, SettleTimeout: 2 * time.Second, Logf: t.Logf})
	if err != nil {
		t.Fatal(err)
	}
	if rep.OK() {
		t.Fatal("mutated merge produced zero violations; the checker is blind")
	}
	found := false
	for _, v := range rep.Violations {
		if strings.Contains(v, "failed to converge") {
			found = true
		}
	}
	if !found {
		t.Fatalf("violations flag something, but not the convergence failure:\n%s", strings.Join(rep.Violations, "\n"))
	}
}

// A spread of seeded chaos schedules: every one must hold the
// invariants, and collectively they must actually inject faults. The
// deep sweep (hundreds of seeds) lives in tools/clustersim; this keeps
// a representative slice in plain `go test`.
func TestSeededChaosSchedulesHoldInvariants(t *testing.T) {
	seeds := []uint64{1, 2, 3, 4, 5, 6, 7, 8}
	if testing.Short() {
		seeds = seeds[:3]
	}
	var injected, expired uint64
	for _, seed := range seeds {
		seed := seed
		t.Run(fmt.Sprintf("seed=%d", seed), func(t *testing.T) {
			rep, err := Run(Options{Seed: seed})
			if err != nil {
				t.Fatal(err)
			}
			if !rep.OK() {
				t.Fatalf("seed %d violations:\n%s", seed, strings.Join(rep.Violations, "\n"))
			}
			injected += rep.ChaosInjected
			expired += rep.Expirations
		})
	}
	if injected == 0 {
		t.Fatal("no faults injected across any seed; the chaos layer is inert")
	}
	t.Logf("across %d seeds: %d faults injected, %d lease expirations", len(seeds), injected, expired)
}
