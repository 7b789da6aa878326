package main

import (
	"encoding/json"
	"fmt"
	"math"
	"math/rand"
	"sort"
	"time"
)

// runSpec is a slipd single-run job spec at test scale.
type runSpec struct {
	Kind   string `json:"kind"`
	Kernel string `json:"kernel"`
	Mode   string `json:"mode"`
	Sync   string `json:"sync"`
	Tokens int    `json:"tokens"`
	Nodes  int    `json:"nodes"`
	Scale  string `json:"scale"`
}

func (s runSpec) String() string {
	return fmt.Sprintf("%s/%s/%s/%d/n%d", s.Kernel, s.Mode, s.Sync, s.Tokens, s.Nodes)
}

func (s runSpec) json() []byte {
	b, err := json.Marshal(s)
	if err != nil {
		panic(err) // a struct of strings and ints always marshals
	}
	return b
}

var (
	specKernels = []string{"BT", "CG", "LU", "MG", "SP"}
	specModes   = []string{"single", "double", "slipstream"}
	// Generated specs use only GLOBAL_SYNC and LOCAL_SYNC: NONE zeroes the
	// token count, so NONE specs are reserved for the fixed hot set and
	// canary and never collide with a generated one.
	specSyncs = []string{"GLOBAL_SYNC", "LOCAL_SYNC"}
)

// hotSet is the fixed set of specs the slipd workload warms before timing
// and then requests as cache hits.
func hotSet() []runSpec {
	var out []runSpec
	for _, k := range specKernels {
		for _, n := range []int{2, 4} {
			out = append(out, runSpec{Kind: "run", Kernel: k, Mode: "slipstream", Sync: "NONE", Nodes: n, Scale: "test"})
		}
	}
	return out
}

// fleetCanary is the fixed spec the fleet workload checks before timing.
var fleetCanary = runSpec{Kind: "run", Kernel: "CG", Mode: "single", Sync: "NONE", Nodes: 2, Scale: "test"}

// specStream returns n distinct single-run specs drawn without replacement
// from kernel × mode × sync × tokens × nodes. It deals them in blocks: each
// block holds every kernel × mode × nodes combination once, in a seeded
// order, for one (tokens, sync) pair, and the pairs advance in a fixed
// order. A stream of whole blocks therefore holds the same mix of kernels,
// modes and sizes for every seed.
func specStream(seed int64, n int, nodes []int) []runSpec {
	rng := rand.New(rand.NewSource(seed*7919 + 17))
	out := make([]runSpec, 0, n)
	for b := 0; len(out) < n; b++ {
		tokens, sync := b/len(specSyncs), specSyncs[b%len(specSyncs)]
		var block []runSpec
		for _, k := range specKernels {
			for _, m := range specModes {
				for _, nd := range nodes {
					block = append(block, runSpec{Kind: "run", Kernel: k, Mode: m, Sync: sync, Tokens: tokens, Nodes: nd, Scale: "test"})
				}
			}
		}
		rng.Shuffle(len(block), func(i, j int) { block[i], block[j] = block[j], block[i] })
		out = append(out, block...)
	}
	return out[:n]
}

// blockSize is the number of specs in one block of specStream.
func blockSize(nodes []int) int { return len(specKernels) * len(specModes) * len(nodes) }

// arrival is one scheduled request of the open-loop generator.
type arrival struct {
	due  time.Duration // offset from the start of the timed window
	miss bool
	spec int // hot-set index for a hit, miss-stream index for a miss
}

// schedule lays out an open-loop arrival schedule over secs seconds: two
// independent Poisson streams, each conditioned on its count (that many
// seeded uniform draws, sorted), so every seed offers exactly the same
// number of hits and misses.
func schedule(seed int64, secs float64, hits, misses, hot int) []arrival {
	rng := rand.New(rand.NewSource(seed))
	window := time.Duration(secs * float64(time.Second))
	draw := func(n int) []time.Duration {
		ts := make([]time.Duration, n)
		for i := range ts {
			ts[i] = time.Duration(rng.Int63n(int64(window)))
		}
		sort.Slice(ts, func(i, j int) bool { return ts[i] < ts[j] })
		return ts
	}
	var out []arrival
	for _, t := range draw(hits) {
		out = append(out, arrival{due: t, spec: rng.Intn(hot)})
	}
	for i, t := range draw(misses) {
		out = append(out, arrival{due: t, miss: true, spec: i})
	}
	sort.SliceStable(out, func(i, j int) bool { return out[i].due < out[j].due })
	return out
}

// missNodes are the machine sizes of the slipd workload's misses.
var missNodes = []int{2, 4, 8}

// loadCounts is the slipd workload's offered load over secs seconds: hits
// at hitRate, and misses at missRate rounded to whole blocks of the miss
// stream (at 30 s, 180 misses: 6/s), so that every seed misses on the
// same mix of specs.
func loadCounts(secs float64) (hits, misses int) {
	bs := blockSize(missNodes)
	blocks := int(math.Round(missRate * secs / float64(bs)))
	if blocks < 1 {
		blocks = 1
	}
	return int(math.Round(hitRate * secs)), blocks * bs
}
