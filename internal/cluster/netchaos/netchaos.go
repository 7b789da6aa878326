// Package netchaos is a seeded, deterministic network-fault layer for
// the fleet control plane. It sits behind the injectable HTTP transport
// every cluster component already takes (coordinator↔coordinator
// replication, worker↔coordinator claim/renew/report) and can drop, delay, duplicate, and reorder messages,
// partition node sets, and skew a node's injectable clock — all derived,
// in the same counter-based splitmix64 style as internal/faults, from a
// single seed. The same seed and spec produce the same fault plan, so a
// schedule that breaks an invariant in the cluster simulation harness
// is reproduced by rerunning that one seed.
//
// Faults model real failure modes precisely:
//
//   - drop: the message never arrives (the caller sees a transport
//     error), or — drawn from the same seed — the message arrives but
//     the *reply* is lost, so the side effect happened and the caller
//     doesn't know. The second mode is what makes "exactly-once by
//     retry" impossible in real networks; the claim table must absorb
//     both.
//   - delay/reorder: the message is held before delivery. Held messages
//     pass later traffic on the same link, which is exactly how
//     reordering manifests to an HTTP client pool.
//   - dup: the message is delivered twice (the second response is
//     discarded). A duplicated claim long-poll grants a lease nobody is
//     running — lease expiry must reclaim it.
//   - partition: messages between nodes in different groups fail, both
//     directions, until Heal.
//   - skew: each node's clock runs a fixed, seed-drawn offset from real
//     time, so absolute lease deadlines disagree between nodes.
package netchaos

import (
	"fmt"
	"sort"
	"strings"
	"sync"
	"time"

	"repro/internal/faults/splitmix"
)

// Fault classes, each with its own draw sub-streams per directed link.
const (
	classDrop uint64 = iota + 1
	classDropReply
	classDelay
	classDup
	classReorder
	classSkew
)

// Spec is a chaos plan: a seed plus per-class probabilities and
// magnitude bounds. The zero Spec injects nothing.
type Spec struct {
	// Seed drives every decision; equal seeds replay equal plans.
	Seed uint64
	// Drop is the per-message loss probability. Half of the losses
	// (drawn from the seed) lose the request, half lose only the reply
	// after the side effect landed.
	Drop float64
	// Delay is the probability a message is held before delivery, for a
	// duration drawn uniformly from [DelayMin, DelayMax].
	Delay    float64
	DelayMin time.Duration
	DelayMax time.Duration
	// Dup is the probability a message is delivered twice.
	Dup float64
	// Reorder is the probability a message is held long enough (one to
	// three DelayMax) to let later traffic on the link pass it.
	Reorder float64
	// SkewMax bounds per-node clock skew: each node's offset is drawn
	// once from [-SkewMax, +SkewMax].
	SkewMax time.Duration
}

// Validate rejects probabilities outside [0, 1] and inverted delay
// bounds.
func (s Spec) Validate() error {
	for _, p := range []struct {
		name string
		v    float64
	}{{"drop", s.Drop}, {"delay", s.Delay}, {"dup", s.Dup}, {"reorder", s.Reorder}} {
		if p.v < 0 || p.v > 1 {
			return fmt.Errorf("netchaos: %s rate %g outside [0, 1]", p.name, p.v)
		}
	}
	if s.DelayMin < 0 || s.DelayMax < 0 || s.DelayMin > s.DelayMax {
		return fmt.Errorf("netchaos: delay bounds [%s, %s] invalid", s.DelayMin, s.DelayMax)
	}
	if s.SkewMax < 0 {
		return fmt.Errorf("netchaos: skew %s negative", s.SkewMax)
	}
	return nil
}

// Active reports whether the spec can inject anything at all.
func (s Spec) Active() bool {
	return s.Drop > 0 || s.Delay > 0 || s.Dup > 0 || s.Reorder > 0 || s.SkewMax > 0
}

// String renders the plan in the ParseSpec grammar.
func (s Spec) String() string {
	var parts []string
	if s.Drop > 0 {
		parts = append(parts, fmt.Sprintf("drop=%g", s.Drop))
	}
	if s.Delay > 0 {
		parts = append(parts, fmt.Sprintf("delay=%g:%s:%s", s.Delay, s.DelayMin, s.DelayMax))
	}
	if s.Dup > 0 {
		parts = append(parts, fmt.Sprintf("dup=%g", s.Dup))
	}
	if s.Reorder > 0 {
		parts = append(parts, fmt.Sprintf("reorder=%g", s.Reorder))
	}
	if s.SkewMax > 0 {
		parts = append(parts, fmt.Sprintf("skew=%s", s.SkewMax))
	}
	if len(parts) == 0 {
		return "none"
	}
	return strings.Join(parts, ",")
}

// ParseSpec parses a chaos plan, as clustersim -chaos takes it:
// comma-separated key=value terms, e.g.
//
//	drop=0.05,delay=0.1:1ms:20ms,dup=0.02,reorder=0.05,skew=50ms
//
// delay takes rate:min:max (min/max optional, default 1ms:25ms); every
// other term takes a bare rate or duration. The seed is set separately
// so one spec can sweep many seeds.
func ParseSpec(in string) (Spec, error) {
	s := Spec{DelayMin: time.Millisecond, DelayMax: 25 * time.Millisecond}
	in = strings.TrimSpace(in)
	if in == "" || in == "none" {
		return s, nil
	}
	for _, term := range strings.Split(in, ",") {
		key, val, ok := strings.Cut(strings.TrimSpace(term), "=")
		if !ok {
			return Spec{}, fmt.Errorf("netchaos: term %q is not key=value", term)
		}
		var err error
		switch key {
		case "drop":
			s.Drop, err = parseRate(val)
		case "dup":
			s.Dup, err = parseRate(val)
		case "reorder":
			s.Reorder, err = parseRate(val)
		case "skew":
			s.SkewMax, err = time.ParseDuration(val)
		case "delay":
			fields := strings.Split(val, ":")
			if len(fields) != 1 && len(fields) != 3 {
				return Spec{}, fmt.Errorf("netchaos: delay %q is not rate[:min:max]", val)
			}
			if s.Delay, err = parseRate(fields[0]); err != nil {
				break
			}
			if len(fields) == 3 {
				if s.DelayMin, err = time.ParseDuration(fields[1]); err != nil {
					break
				}
				s.DelayMax, err = time.ParseDuration(fields[2])
			}
		default:
			return Spec{}, fmt.Errorf("netchaos: unknown term %q (valid: drop, delay, dup, reorder, skew)", key)
		}
		if err != nil {
			return Spec{}, fmt.Errorf("netchaos: term %q: %v", term, err)
		}
	}
	return s, s.Validate()
}

func parseRate(s string) (float64, error) {
	var r float64
	if _, err := fmt.Sscanf(s, "%g", &r); err != nil {
		return 0, fmt.Errorf("bad rate %q", s)
	}
	if r < 0 || r > 1 {
		return 0, fmt.Errorf("rate %g outside [0, 1]", r)
	}
	return r, nil
}

// Counters are the lifetime injection counts, one per fault kind plus
// messages refused by an active partition.
type Counters struct {
	Dropped     uint64 // request lost before delivery
	RepliesLost uint64 // delivered, but the response was lost
	Delayed     uint64
	Duplicated  uint64
	Reordered   uint64
	Partitioned uint64
}

// Total sums every injected fault.
func (c Counters) Total() uint64 {
	return c.Dropped + c.RepliesLost + c.Delayed + c.Duplicated + c.Reordered + c.Partitioned
}

// String renders non-zero counts for log lines.
func (c Counters) String() string {
	var parts []string
	for _, p := range []struct {
		name string
		v    uint64
	}{
		{"dropped", c.Dropped}, {"replies_lost", c.RepliesLost}, {"delayed", c.Delayed},
		{"duplicated", c.Duplicated}, {"reordered", c.Reordered}, {"partitioned", c.Partitioned},
	} {
		if p.v > 0 {
			parts = append(parts, fmt.Sprintf("%s=%d", p.name, p.v))
		}
	}
	if len(parts) == 0 {
		return "none"
	}
	return strings.Join(parts, " ")
}

// Chaos is the seeded decision core shared by every Transport derived
// from it. It is safe for concurrent use: the draw stream is guarded by
// a mutex, and draws stay deterministic per directed link because each
// (class, link) pair owns its own counter — concurrency changes which
// goroutine consumes a link's next draw, never the draw sequence itself.
type Chaos struct {
	mu     sync.Mutex
	spec   Spec
	str    *splitmix.Stream
	paused bool
	part   map[string]int // node → partition group; empty = fully connected
	ctr    Counters
}

// New builds a chaos core for the spec. Invalid specs are rejected.
func New(spec Spec) (*Chaos, error) {
	if err := spec.Validate(); err != nil {
		return nil, err
	}
	return &Chaos{spec: spec, str: splitmix.NewStream(spec.Seed)}, nil
}

// MustNew is New for specs known valid (tests, generated schedules).
func MustNew(spec Spec) *Chaos {
	c, err := New(spec)
	if err != nil {
		panic(err)
	}
	return c
}

// Quiesce stops all message-fault injection (clock skew persists: a
// skewed clock does not heal when the network does). Partitions are
// unaffected; Heal them separately.
func (c *Chaos) Quiesce() {
	c.mu.Lock()
	c.paused = true
	c.mu.Unlock()
}

// Resume re-arms message faults after a Quiesce.
func (c *Chaos) Resume() {
	c.mu.Lock()
	c.paused = false
	c.mu.Unlock()
}

// Partition splits the named nodes into isolated groups: a message
// between nodes of different groups fails as a transport error. Nodes
// not named in any group remain reachable from everyone (group 0 —
// pass every node explicitly for a full split). Calling Partition
// replaces any previous partition.
func (c *Chaos) Partition(groups ...[]string) {
	c.mu.Lock()
	c.part = map[string]int{}
	for g, nodes := range groups {
		for _, n := range nodes {
			c.part[n] = g + 1 // 0 is the implicit "everyone" group
		}
	}
	c.mu.Unlock()
}

// Heal removes the active partition.
func (c *Chaos) Heal() {
	c.mu.Lock()
	c.part = nil
	c.mu.Unlock()
}

// Partitioned reports whether from→to is currently blocked.
func (c *Chaos) Partitioned(from, to string) bool {
	c.mu.Lock()
	defer c.mu.Unlock()
	return c.partitionedLocked(from, to)
}

func (c *Chaos) partitionedLocked(from, to string) bool {
	if len(c.part) == 0 {
		return false
	}
	gf, gt := c.part[from], c.part[to]
	return gf != 0 && gt != 0 && gf != gt
}

// Counters returns a copy of the lifetime injection counts.
func (c *Chaos) Counters() Counters {
	c.mu.Lock()
	defer c.mu.Unlock()
	return c.ctr
}

// Skew returns the node's seed-drawn clock offset in [-SkewMax, +SkewMax].
// The draw is positional (no counter), so it is stable for the node's
// lifetime and across restarts.
func (c *Chaos) Skew(node string) time.Duration {
	c.mu.Lock()
	defer c.mu.Unlock()
	if c.spec.SkewMax <= 0 {
		return 0
	}
	h := c.str.DrawAt(classSkew, splitmix.HashString(node), 0)
	span := 2*int64(c.spec.SkewMax) + 1
	return time.Duration(int64(h%uint64(span))) - c.spec.SkewMax
}

// Clock returns the node's skewed wall clock, suitable for a
// coordinator's injectable Now.
func (c *Chaos) Clock(node string) func() time.Time {
	skew := c.Skew(node)
	return func() time.Time { return time.Now().Add(skew) }
}

// verdict is one message's fate, drawn up front so the whole plan for
// the message is fixed before any time passes.
type verdict struct {
	partitioned bool
	drop        bool // lose the request: no side effect
	dropReply   bool // deliver, then lose the response
	delay       time.Duration
	dup         bool
}

// judge consumes the draws for one message on the directed link
// from→to. Counter keys are per (class, link) so every link owns an
// independent, reproducible fault sequence.
func (c *Chaos) judge(from, to string) verdict {
	c.mu.Lock()
	defer c.mu.Unlock()
	var v verdict
	if c.partitionedLocked(from, to) {
		c.ctr.Partitioned++
		v.partitioned = true
		return v
	}
	if c.paused {
		return v
	}
	link := splitmix.HashString(from + "\x00" + to)
	if c.hit(classDrop, link, c.spec.Drop) {
		// The same draw stream decides which side of the exchange is
		// lost: requests and replies fail in the wild about equally.
		if c.str.Next(classDropReply, link)&1 == 0 {
			c.ctr.Dropped++
			v.drop = true
		} else {
			c.ctr.RepliesLost++
			v.dropReply = true
		}
		return v
	}
	if c.hit(classReorder, link, c.spec.Reorder) {
		// Held one to three DelayMax: long enough that later messages on
		// the link overtake this one.
		span := int64(c.spec.DelayMax)
		if span <= 0 {
			span = int64(10 * time.Millisecond)
		}
		v.delay = time.Duration(span + int64(c.str.Next(classReorder, link^1)%uint64(2*span)))
		c.ctr.Reordered++
	} else if c.hit(classDelay, link, c.spec.Delay) {
		lo, hi := int64(c.spec.DelayMin), int64(c.spec.DelayMax)
		v.delay = time.Duration(lo)
		if hi > lo {
			v.delay += time.Duration(int64(c.str.Next(classDelay, link^1) % uint64(hi-lo+1)))
		}
		c.ctr.Delayed++
	}
	if c.hit(classDup, link, c.spec.Dup) {
		v.dup = true
		c.ctr.Duplicated++
	}
	return v
}

// hit consumes one draw of class on the link and compares it to the
// rate. Callers hold c.mu.
func (c *Chaos) hit(class, link uint64, rate float64) bool {
	if rate <= 0 {
		return false
	}
	th, always := splitmix.Threshold(rate)
	h := c.str.Next(class, link)
	return always || h < th
}

// PartitionView renders the active partition for logs: "a,b|c" or "".
func (c *Chaos) PartitionView() string {
	c.mu.Lock()
	defer c.mu.Unlock()
	if len(c.part) == 0 {
		return ""
	}
	groups := map[int][]string{}
	for n, g := range c.part {
		groups[g] = append(groups[g], n)
	}
	ids := make([]int, 0, len(groups))
	for g := range groups {
		ids = append(ids, g)
	}
	sort.Ints(ids)
	var parts []string
	for _, g := range ids {
		sort.Strings(groups[g])
		parts = append(parts, strings.Join(groups[g], ","))
	}
	return strings.Join(parts, "|")
}
