// Package cache implements the set-associative write-back caches of the
// simulated machine: per-processor split L1s and the per-CMP unified L2
// shared by the two processors of a node (paper Table 1).
//
// Caches store timing state only — data values live in the shmem backing
// store. Each L2 line carries the metadata needed to classify shared-memory
// requests the way the paper's Figures 3 and 5 do (A-Timely / A-Late /
// A-Only and the R-stream equivalents), plus L1 presence bits so the L2 can
// maintain inclusion over its two L1s.
package cache

import (
	"fmt"
	"sync"
	"unsafe"
)

// State is a cache line coherence state (MSI).
type State uint8

// Line states. Shared lines are clean and possibly replicated; Modified
// lines are dirty and exclusive system-wide.
const (
	Invalid State = iota
	Shared
	Modified
)

// String returns the state mnemonic.
func (s State) String() string {
	switch s {
	case Invalid:
		return "I"
	case Shared:
		return "S"
	case Modified:
		return "M"
	}
	return fmt.Sprintf("State(%d)", uint8(s))
}

// FillKind records what transaction filled an L2 line (for classification).
type FillKind uint8

// Fill kinds: no record, a read (shared) fill, or a read-exclusive fill.
const (
	FillNone FillKind = iota
	FillRead
	FillReadEx
)

// Line is one cache line's tag and metadata. Its fields are ordered so
// that it packs into 32 bytes: line storage is nearly all of a
// simulation's memory.
type Line struct {
	Tag     uint64 // line number (address >> lineShift); valid iff State != Invalid
	lastUse uint64

	// L2-only: classification of the fill that brought the line in.
	FillDone   uint64 // simulation time at which the fill completes
	FilledBy   int16  // global proc index of the requester, -1 if untracked
	FillKindV  FillKind
	UsedByPair bool // the requester's slipstream partner touched the line
	Prefetch   bool // fill was an A-stream prefetch (store conversion)

	// L2-only: inclusion tracking over the node's two L1s.
	L1Mask  uint8 // bit c set => local cpu c's L1 holds the line
	L1Dirty int8  // local cpu holding the line dirty in L1, -1 if none

	State State
}

// reset clears a line for reuse by a new tag.
func (l *Line) reset(tag uint64, st State, use uint64) {
	*l = Line{Tag: tag, State: st, lastUse: use, FilledBy: -1, L1Dirty: -1}
}

// Cache is a set-associative cache with LRU replacement.
type Cache struct {
	name      string
	lineShift uint
	setMask   uint64
	assoc     int
	nsets     int
	lines     []Line // nsets * assoc, set-major
	useClock  uint64

	// Counters.
	Hits   uint64
	Misses uint64
	Evicts uint64
}

// New builds a cache of sizeBytes with the given associativity and line
// size. sizeBytes must be assoc*lineBytes*2^k for integer k.
func New(name string, sizeBytes, assoc, lineBytes int) *Cache {
	if lineBytes <= 0 || lineBytes&(lineBytes-1) != 0 {
		panic(fmt.Sprintf("cache %s: line size %d not a power of two", name, lineBytes))
	}
	nsets := sizeBytes / (assoc * lineBytes)
	if nsets <= 0 || nsets&(nsets-1) != 0 {
		panic(fmt.Sprintf("cache %s: %dB/%d-way/%dB-line gives %d sets (must be power of two)",
			name, sizeBytes, assoc, lineBytes, nsets))
	}
	shift := uint(0)
	for 1<<shift != lineBytes {
		shift++
	}
	c := &Cache{
		name:      name,
		lineShift: shift,
		setMask:   uint64(nsets - 1),
		assoc:     assoc,
		nsets:     nsets,
		lines:     freeLines.get(nsets * assoc),
	}
	for i := range c.lines {
		c.lines[i] = Line{FilledBy: -1, L1Dirty: -1}
	}
	return c
}

// Release hands the cache's line storage back for reuse by a later New.
// The cache must not be used afterwards.
func (c *Cache) Release() {
	freeLines.put(c.lines)
	c.lines = nil
}

// maxFreeLineBytes bounds the line storage kept for reuse: enough for the
// caches of a few 16-CMP machines.
const maxFreeLineBytes = 64 << 20

// freeLines is the line storage released by finished caches, by length.
// Line arrays are nearly all of a simulation's memory, and reusing them
// keeps a run of simulations at a steady footprint: without it every run
// allocates its machine's caches afresh, and how much of that the
// collector finds live depends on how runs overlap its cycles.
var freeLines lineFreeList

type lineFreeList struct {
	mu    sync.Mutex
	byLen map[int][][]Line
	bytes int
}

// get returns storage for n lines, reused when possible. Reused lines
// hold a finished cache's state; New resets them.
func (f *lineFreeList) get(n int) []Line {
	f.mu.Lock()
	defer f.mu.Unlock()
	free := f.byLen[n]
	if len(free) == 0 {
		return make([]Line, n)
	}
	lines := free[len(free)-1]
	f.byLen[n] = free[:len(free)-1]
	f.bytes -= linesBytes(n)
	return lines
}

// put keeps lines for reuse unless the free list is full.
func (f *lineFreeList) put(lines []Line) {
	n := len(lines)
	if n == 0 {
		return
	}
	f.mu.Lock()
	defer f.mu.Unlock()
	if f.bytes+linesBytes(n) > maxFreeLineBytes {
		return
	}
	if f.byLen == nil {
		f.byLen = map[int][][]Line{}
	}
	f.byLen[n] = append(f.byLen[n], lines)
	f.bytes += linesBytes(n)
}

func linesBytes(n int) int { return n * int(unsafe.Sizeof(Line{})) }

// Name returns the cache's debug name.
func (c *Cache) Name() string { return c.name }

// Sets returns the number of sets.
func (c *Cache) Sets() int { return c.nsets }

// Assoc returns the associativity.
func (c *Cache) Assoc() int { return c.assoc }

// LineOf maps an address to its line number.
func (c *Cache) LineOf(addr uint64) uint64 { return addr >> c.lineShift }

// set returns the slice of ways for a line number.
func (c *Cache) set(line uint64) []Line {
	s := int(line & c.setMask)
	return c.lines[s*c.assoc : (s+1)*c.assoc]
}

// Lookup finds a resident line and bumps its LRU position. Returns nil on
// miss. Lookup does not update hit/miss counters; the caller decides what
// counts as a demand access.
func (c *Cache) Lookup(line uint64) *Line {
	ways := c.set(line)
	for i := range ways {
		if ways[i].State != Invalid && ways[i].Tag == line {
			c.useClock++
			ways[i].lastUse = c.useClock
			return &ways[i]
		}
	}
	return nil
}

// Peek finds a resident line without disturbing LRU state.
func (c *Cache) Peek(line uint64) *Line {
	ways := c.set(line)
	for i := range ways {
		if ways[i].State != Invalid && ways[i].Tag == line {
			return &ways[i]
		}
	}
	return nil
}

// Insert allocates a way for line (which must not be resident), evicting
// the LRU way if needed. It returns the new line (already reset, in state
// st) and, when an eviction occurred, a copy of the victim's metadata.
func (c *Cache) Insert(line uint64, st State) (l *Line, victim Line, evicted bool) {
	ways := c.set(line)
	var slot *Line
	for i := range ways {
		if ways[i].State == Invalid {
			slot = &ways[i]
			break
		}
	}
	if slot == nil {
		slot = &ways[0]
		for i := 1; i < len(ways); i++ {
			if ways[i].lastUse < slot.lastUse {
				slot = &ways[i]
			}
		}
		victim = *slot
		evicted = true
		c.Evicts++
	}
	c.useClock++
	slot.reset(line, st, c.useClock)
	return slot, victim, evicted
}

// Invalidate removes line if resident, returning a copy of its prior
// metadata and whether it was resident.
func (c *Cache) Invalidate(line uint64) (old Line, was bool) {
	if l := c.Peek(line); l != nil {
		old = *l
		l.State = Invalid
		return old, true
	}
	return Line{}, false
}

// ForEachResident calls fn for every valid line (used for end-of-run
// classification of prefetched-but-never-used lines).
func (c *Cache) ForEachResident(fn func(*Line)) {
	for i := range c.lines {
		if c.lines[i].State != Invalid {
			fn(&c.lines[i])
		}
	}
}
