// Package directory implements the invalidate-based, fully-mapped directory
// that keeps the per-CMP L2 caches coherent (paper §5: "System-wide
// coherence of the L2 caches is maintained by an invalidate-based
// fully-mapped directory protocol").
//
// The directory tracks one entry per cache line, at the line's home node
// (lines are interleaved across nodes). Entries record whether the line is
// uncached, shared by a set of nodes, or modified (dirty) at a single owner
// node. The timing of directory transactions is charged by the machine
// package; this package owns the protocol state.
package directory

import (
	"fmt"
	"math/bits"
)

// State is a directory entry state.
type State uint8

// Directory states.
const (
	Uncached   State = iota // memory has the only copy
	SharedSt                // one or more node L2s hold clean copies
	ModifiedSt              // exactly one node L2 holds a dirty copy
)

// String returns the state mnemonic.
func (s State) String() string {
	switch s {
	case Uncached:
		return "U"
	case SharedSt:
		return "S"
	case ModifiedSt:
		return "M"
	}
	return fmt.Sprintf("State(%d)", uint8(s))
}

// Entry is the coherence record for a single line.
type Entry struct {
	State   State
	Sharers uint64 // bitmask of nodes with clean copies (SharedSt)
	Owner   int    // owning node (ModifiedSt)
}

// Directory maps lines to entries. Entries are created on demand in state
// Uncached; a full map (rather than a fixed-size table) stands in for the
// paper's fully-mapped directory.
type Directory struct {
	nodes   int
	entries map[uint64]*Entry
	slab    []Entry // unused entries, handed out by Entry
}

// slabEntries is how many entries one allocation provides, so creating
// entries for a run's working set costs one allocation per slab rather
// than one per line.
const slabEntries = 256

// New returns a directory for a machine with the given node count
// (at most 64, the sharer bitmask width).
func New(nodes int) *Directory {
	if nodes <= 0 || nodes > 64 {
		panic(fmt.Sprintf("directory: unsupported node count %d", nodes))
	}
	return &Directory{nodes: nodes, entries: make(map[uint64]*Entry)}
}

// Nodes returns the node count.
func (d *Directory) Nodes() int { return d.nodes }

// Home returns the home node of a line (line-interleaved placement).
func (d *Directory) Home(line uint64) int { return int(line % uint64(d.nodes)) }

// Entry returns the entry for line, creating it Uncached if absent.
func (d *Directory) Entry(line uint64) *Entry {
	e := d.entries[line]
	if e == nil {
		if len(d.slab) == 0 {
			d.slab = make([]Entry, slabEntries)
		}
		e = &d.slab[0]
		d.slab = d.slab[1:]
		*e = Entry{State: Uncached, Owner: -1}
		d.entries[line] = e
	}
	return e
}

// Peek returns the entry for line or nil without creating one.
func (d *Directory) Peek(line uint64) *Entry { return d.entries[line] }

// AddSharer records that node holds a clean copy.
func (e *Entry) AddSharer(node int) {
	e.State = SharedSt
	e.Sharers |= 1 << uint(node)
	e.Owner = -1
}

// RemoveSharer clears node's copy; the entry returns to Uncached when the
// last sharer leaves.
func (e *Entry) RemoveSharer(node int) {
	e.Sharers &^= 1 << uint(node)
	if e.State == SharedSt && e.Sharers == 0 {
		e.State = Uncached
	}
}

// SetOwner records that node holds the line dirty and exclusive.
func (e *Entry) SetOwner(node int) {
	e.State = ModifiedSt
	e.Owner = node
	e.Sharers = 1 << uint(node)
}

// ClearOwner writes the line back: the entry becomes Uncached.
func (e *Entry) ClearOwner() {
	e.State = Uncached
	e.Owner = -1
	e.Sharers = 0
}

// HasSharer reports whether node holds a copy per the directory.
func (e *Entry) HasSharer(node int) bool { return e.Sharers&(1<<uint(node)) != 0 }

// SharerCount returns the number of nodes holding copies.
func (e *Entry) SharerCount() int {
	n := 0
	for m := e.Sharers; m != 0; m &= m - 1 {
		n++
	}
	return n
}

// OtherSharers returns the nodes (excluding exclude) holding copies.
func (e *Entry) OtherSharers(exclude int) []int {
	return e.AppendOtherSharers(nil, exclude)
}

// AppendOtherSharers appends the nodes (excluding exclude) holding copies
// to dst and returns the extended slice. Callers on the coherence hot path
// pass a reusable scratch buffer so the invalidation fan-out allocates
// nothing.
func (e *Entry) AppendOtherSharers(dst []int, exclude int) []int {
	for m := e.Sharers &^ (1 << uint(exclude)); m != 0; m &= m - 1 {
		dst = append(dst, bits.TrailingZeros64(m))
	}
	return dst
}

// Check validates entry invariants, returning an error describing the first
// violation (used by tests and the machine's self-check mode).
func (e *Entry) Check() error {
	switch e.State {
	case Uncached:
		if e.Sharers != 0 || e.Owner != -1 {
			return fmt.Errorf("uncached entry has sharers=%#x owner=%d", e.Sharers, e.Owner)
		}
	case SharedSt:
		if e.Sharers == 0 {
			return fmt.Errorf("shared entry with no sharers")
		}
		if e.Owner != -1 {
			return fmt.Errorf("shared entry with owner %d", e.Owner)
		}
	case ModifiedSt:
		if e.Owner < 0 {
			return fmt.Errorf("modified entry with no owner")
		}
		if e.Sharers != 1<<uint(e.Owner) {
			return fmt.Errorf("modified entry sharers=%#x owner=%d", e.Sharers, e.Owner)
		}
	}
	return nil
}

// ForEach iterates over all existing entries.
func (d *Directory) ForEach(fn func(line uint64, e *Entry)) {
	for line, e := range d.entries {
		fn(line, e)
	}
}
