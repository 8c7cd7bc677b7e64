// Package cache provides the storage structures shared by the private
// cache units and the LLC banks: set-associative tag/data arrays with LRU
// replacement, and MSHR files with the resource partitioning the paper
// requires (at least one MSHR always reserved for SoS loads, Section
// 3.5.2).
//
// An MSHR file is a tag match over its entries. Each entry carries its
// line and an allocation stamp, so the MSHRs of one line are returned
// oldest first, the order in which they were allocated, whichever slots
// they occupy.
package cache

import (
	"fmt"

	"wbsim/internal/mem"
)

// Entry is one cache frame. State is owned by the coherence layer; the
// array only distinguishes valid (allocated) from invalid frames.
type Entry struct {
	Line  mem.Line
	Data  mem.LineData
	State int
	Dirty bool

	valid bool
	lru   uint64
	set   int
	way   int
}

// Valid reports whether the frame holds a line.
func (e *Entry) Valid() bool { return e.valid }

// Array is a set-associative cache array. Frame storage is allocated
// per set on first touch: most simulated runs reference a small fraction
// of a megabyte-sized LLC bank, and eagerly zeroing every frame of every
// array dominated machine-construction cost. A set's frame slice is
// never reallocated once created, so *Entry pointers handed out stay
// valid for the array's lifetime.
type Array struct {
	sets   int
	ways   int
	frames [][]Entry // frames[set], nil until the set is first touched
	// tags mirrors the Line of every valid frame in a dense per-set
	// word array: a lookup scans one cache line of tags instead of
	// striding across the full (data-carrying) Entry structs. A tag is
	// meaningful only while its frame is valid; Evict leaves it stale,
	// which costs at most one extra valid check on a later scan.
	tags     [][]mem.Line
	occupied int
	lruTick  uint64
}

// NewArray builds an array with the given line capacity and associativity.
// capacityLines must be a positive multiple of ways.
func NewArray(capacityLines, ways int) *Array {
	if capacityLines <= 0 || ways <= 0 || capacityLines%ways != 0 {
		panic(fmt.Sprintf("cache: bad geometry capacity=%d ways=%d", capacityLines, ways))
	}
	return &Array{
		sets:   capacityLines / ways,
		ways:   ways,
		frames: make([][]Entry, capacityLines/ways),
		tags:   make([][]mem.Line, capacityLines/ways),
	}
}

// setFrames returns set's frame slice, allocating it on first touch.
func (a *Array) setFrames(set int) []Entry {
	fs := a.frames[set]
	if fs == nil {
		fs = make([]Entry, a.ways)
		for i := range fs {
			fs[i].set = set
			fs[i].way = i
		}
		a.frames[set] = fs
		a.tags[set] = make([]mem.Line, a.ways)
	}
	return fs
}

// Sets returns the number of sets.
func (a *Array) Sets() int { return a.sets }

// Ways returns the associativity.
func (a *Array) Ways() int { return a.ways }

// setOf maps a line to its set index. The index is drawn from a
// Fibonacci hash of the line number rather than its low bits: in a
// banked system the bank-interleaving already consumes the low bits, so
// a plain modulo would alias bank and set selection and leave most sets
// of every bank unused.
func (a *Array) setOf(l mem.Line) int {
	return int((uint64(l) * 0x9e3779b97f4a7c15 >> 17) % uint64(a.sets))
}

// SetIndex exposes the line-to-set mapping (tests use it to construct
// conflicting line sets).
func (a *Array) SetIndex(l mem.Line) int { return a.setOf(l) }

// Lookup returns the frame holding l, or nil. It does not update LRU; use
// Touch on an access that should refresh recency. Like the hardware it
// models, lookup is a tag match across the line's set — cheaper than the
// hash-map index it replaced, which dominated the load hit path.
func (a *Array) Lookup(l mem.Line) *Entry {
	set := a.setOf(l)
	for i, t := range a.tags[set] {
		if t == l {
			if e := &a.frames[set][i]; e.valid {
				return e
			}
		}
	}
	return nil
}

// Touch marks e as most recently used.
func (a *Array) Touch(e *Entry) {
	a.lruTick++
	e.lru = a.lruTick
}

// Victim returns the frame that would be allocated for l: an invalid frame
// in l's set if one exists, otherwise the LRU valid frame. The returned
// frame may hold another line (the caller must evict it first). Frames for
// which keep(entry) returns true are skipped (used to avoid victimizing
// lines with special protocol state); if every frame is kept, Victim
// returns nil.
func (a *Array) Victim(l mem.Line, keep func(*Entry) bool) *Entry {
	fs := a.setFrames(a.setOf(l))
	var victim *Entry
	for i := 0; i < a.ways; i++ {
		e := &fs[i]
		if !e.valid {
			return e
		}
		if keep != nil && keep(e) {
			continue
		}
		if victim == nil || e.lru < victim.lru {
			victim = e
		}
	}
	return victim
}

// Install places line l in frame e (which must be invalid or already
// evicted by the caller) and returns it.
func (a *Array) Install(e *Entry, l mem.Line) *Entry {
	if e.valid {
		panic(fmt.Sprintf("cache: installing %v over valid frame holding %v", l, e.Line))
	}
	if a.setOf(l) != e.set {
		panic(fmt.Sprintf("cache: line %v does not map to frame set %d", l, e.set))
	}
	e.Line = l
	e.valid = true
	e.Dirty = false
	e.State = 0
	e.Data = mem.LineData{}
	a.tags[e.set][e.way] = l
	a.occupied++
	a.Touch(e)
	return e
}

// LRURank reports e's eviction rank among the valid frames of its set:
// 0 means e is the least recently used — the next victim among valid
// frames. Raw LRU ticks come from a per-array monotone counter and so
// differ between runs that reach equivalent states; canonical state
// fingerprints (the model checker's) use the rank instead.
func (a *Array) LRURank(e *Entry) int {
	rank := 0
	for i := range a.frames[e.set] {
		o := &a.frames[e.set][i]
		if o.valid && o != e && o.lru < e.lru {
			rank++
		}
	}
	return rank
}

// Evict invalidates frame e, removing it from the index.
func (a *Array) Evict(e *Entry) {
	if !e.valid {
		return
	}
	e.valid = false
	e.Dirty = false
	e.State = 0
	a.occupied--
}

// Occupancy reports the number of valid frames.
func (a *Array) Occupancy() int { return a.occupied }

// ForEach visits every valid frame (in set, then way order —
// deterministic, and identical to the flat frame order).
func (a *Array) ForEach(f func(*Entry)) {
	for _, fs := range a.frames {
		for i := range fs {
			if fs[i].valid {
				f(&fs[i])
			}
		}
	}
}
