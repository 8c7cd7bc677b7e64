// Package cache provides the storage structures shared by the private
// cache units and the LLC banks: set-associative tag/data arrays with LRU
// replacement, and MSHR files with the resource partitioning the paper
// requires (at least one MSHR always reserved for SoS loads, Section
// 3.5.2).
//
// An array allocates for the sets a run touches, not for its capacity:
// NewArray makes one 4-byte index word per set, and a set's
// frames and tags are carved from per-array chunks when a line is
// first placed in it. A 16-core run touches about 6% of its LLC sets.
//
// An MSHR file is a tag match over its entries. Each entry carries its
// line and an allocation stamp, so the MSHRs of one line are returned
// oldest first, the order in which they were allocated, whichever slots
// they occupy.
package cache

import (
	"fmt"
	"math"

	"wbsim/internal/mem"
)

// Entry is one cache frame. State is owned by the coherence layer; the
// array only distinguishes valid (allocated) from invalid frames. The
// frame's position is kept in 6 bytes beside the two flags, so a frame
// is 96 bytes.
type Entry struct {
	Line  mem.Line
	Data  mem.LineData
	State int

	lru   uint64
	set   int32
	way   uint16
	Dirty bool
	valid bool
}

// Valid reports whether the frame holds a line.
func (e *Entry) Valid() bool { return e.valid }

// maxChunkSets caps how many sets' frames one allocation holds. Chunks
// start at one set and double up to the cap, so an array that touches n
// sets makes at most 5 + n/maxChunkSets chunks and holds frames for
// fewer than maxChunkSets sets it never used.
const maxChunkSets = 16

// Array is a set-associative cache array. Frame storage is carved on
// first touch: most simulated runs reference a small fraction of a
// megabyte-sized LLC bank, so a set costs one 4-byte index word until a
// line is placed in it. Then it gets the next slot, whose frames and
// tags are cut from the array's newest chunk. A chunk is never
// reallocated, so *Entry pointers handed out stay valid for the array's
// lifetime.
type Array struct {
	sets int
	ways int
	// index[set] is 0 while the set is untouched, else 1 + its slot in
	// slots, which lists the touched sets in the order they were first
	// used. Nothing points into slots, so it grows by append.
	index []int32
	slots []frameSet
	// spareFrames and spareTags are the rest of the newest chunk.
	spareFrames []Entry
	spareTags   []mem.Line
	occupied    int
	lruTick     uint64
}

// frameSet is one touched set: its frames, and the Line of every valid
// frame in a dense word array, so a lookup scans one cache line of tags
// instead of striding across the full (data-carrying) frames. A tag is
// meaningful only while its frame is valid; Evict leaves it stale, which
// costs at most one extra valid check on a later scan.
type frameSet struct {
	tags   []mem.Line
	frames []Entry
}

// NewArray builds an array with the given line capacity and associativity.
// capacityLines must be a positive multiple of ways.
func NewArray(capacityLines, ways int) *Array {
	if capacityLines <= 0 || ways <= 0 || capacityLines%ways != 0 ||
		ways > math.MaxUint16 || capacityLines/ways > math.MaxInt32 {
		panic(fmt.Sprintf("cache: bad geometry capacity=%d ways=%d", capacityLines, ways))
	}
	return &Array{
		sets:  capacityLines / ways,
		ways:  ways,
		index: make([]int32, capacityLines/ways),
	}
}

// set returns set s's frames and tags, or nil while s is untouched. The
// pointer is good until the next carve, which may move slots.
func (a *Array) set(s int) *frameSet {
	v := a.index[s]
	if v == 0 {
		return nil
	}
	return &a.slots[v-1]
}

// carve gives untouched set the next slot, with frames and tags cut
// from the newest chunk (a new one when that is used up).
func (a *Array) carve(set int) *frameSet {
	w := a.ways
	if len(a.spareFrames) == 0 {
		carved := len(a.slots)
		n := min(max(carved, 1), maxChunkSets, a.sets-carved) * w
		a.spareFrames, a.spareTags = make([]Entry, n), make([]mem.Line, n)
	}
	fs := frameSet{tags: a.spareTags[:w:w], frames: a.spareFrames[:w:w]}
	a.spareTags, a.spareFrames = a.spareTags[w:], a.spareFrames[w:]
	for i := range fs.frames {
		fs.frames[i].set = int32(set)
		fs.frames[i].way = uint16(i)
	}
	a.slots = append(a.slots, fs)
	a.index[set] = int32(len(a.slots))
	return &a.slots[len(a.slots)-1]
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
	if v := a.index[a.setOf(l)]; v != 0 {
		fs := &a.slots[v-1]
		for i, t := range fs.tags {
			if t == l && fs.frames[i].valid {
				return &fs.frames[i]
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
	set := a.setOf(l)
	fs := a.set(set)
	if fs == nil {
		fs = a.carve(set)
	}
	var victim *Entry
	for i := range fs.frames {
		e := &fs.frames[i]
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
	if a.setOf(l) != int(e.set) {
		panic(fmt.Sprintf("cache: line %v does not map to frame set %d", l, e.set))
	}
	e.Line = l
	e.valid = true
	e.Dirty = false
	e.State = 0
	e.Data = mem.LineData{}
	a.set(int(e.set)).tags[e.way] = l
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
	fs := a.set(int(e.set))
	for i := range fs.frames {
		o := &fs.frames[i]
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
	for _, v := range a.index {
		if v == 0 {
			continue
		}
		frames := a.slots[v-1].frames
		for i := range frames {
			if frames[i].valid {
				f(&frames[i])
			}
		}
	}
}
