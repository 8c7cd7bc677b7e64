// Package mem defines the memory substrate of the simulator: byte
// addresses, cache-line geometry, word values, and a sparse backing store.
//
// The simulator distinguishes loads/stores (instructions, word granular)
// from reads/writes (coherence transactions, line granular) exactly as the
// paper does; this package provides the address arithmetic shared by both
// views.
package mem

import "fmt"

// Geometry constants. The paper's system uses 64-byte lines; words are
// 8 bytes, and all loads and stores in the tiny ISA are word sized and
// word aligned.
const (
	LineBytes  = 64
	WordBytes  = 8
	LineWords  = LineBytes / WordBytes
	LineShift  = 6 // log2(LineBytes)
	offsetMask = LineBytes - 1
)

// Addr is a byte address in the simulated physical address space.
type Addr uint64

// Line identifies a cache line (an address with the offset bits dropped).
type Line uint64

// LineOf returns the cache line containing a.
func LineOf(a Addr) Line { return Line(a >> LineShift) }

// Base returns the address of the first byte of the line.
func (l Line) Base() Addr { return Addr(l) << LineShift }

// WordIndex returns the index of the word within its line (0..LineWords-1).
func WordIndex(a Addr) int { return int(a&offsetMask) / WordBytes }

// AlignWord rounds a down to a word boundary.
func AlignWord(a Addr) Addr { return a &^ (WordBytes - 1) }

// String renders an address as hex.
func (a Addr) String() string { return fmt.Sprintf("0x%x", uint64(a)) }

// String renders a line as the hex of its base address.
func (l Line) String() string { return fmt.Sprintf("L0x%x", uint64(l.Base())) }

// Word is an 8-byte data value.
type Word uint64

// LineData is the data payload of one cache line, as words.
type LineData [LineWords]Word

// Get returns the word at byte address a, which must lie within the line.
func (d *LineData) Get(a Addr) Word { return d[WordIndex(a)] }

// Set stores w at byte address a, which must lie within the line.
func (d *LineData) Set(a Addr, w Word) { d[WordIndex(a)] = w }

// Memory is the sparse backing store behind the LLC. Only lines that were
// ever written are materialized; unwritten lines read as zero, matching
// the zero-initialized memory the paper's litmus examples assume.
//
// A Memory is not safe for concurrent use: one machine owns it and drives
// it from one goroutine. The model checker's parallel frontier hands each
// frontier state, and the clones made from it, to one worker at a time.
type Memory struct {
	lines map[Line]*LineData
}

// NewMemory returns an empty (all zero) memory.
func NewMemory() *Memory {
	return &Memory{lines: make(map[Line]*LineData)}
}

// CloneInto overwrites dst with m's contents, reusing dst's map and line
// storage where the keys match (model-checker state pooling: dst is a
// retired clone nothing else references).
func (m *Memory) CloneInto(dst *Memory) {
	//wbsim:nondet -- each delete decision depends only on its own key
	for l := range dst.lines {
		if _, ok := m.lines[l]; !ok {
			delete(dst.lines, l)
		}
	}
	//wbsim:nondet -- per-key copy into distinct slots; order-independent
	for l, d := range m.lines {
		if pd, ok := dst.lines[l]; ok {
			*pd = *d
		} else {
			nd := *d
			dst.lines[l] = &nd
		}
	}
}

// ReadLine returns a copy of the line's data.
func (m *Memory) ReadLine(l Line) LineData {
	if d, ok := m.lines[l]; ok {
		return *d
	}
	return LineData{}
}

// WriteLine replaces the line's data. A materialized line is
// overwritten in place, so only a line's first write allocates.
func (m *Memory) WriteLine(l Line, d LineData) {
	pd, ok := m.lines[l]
	if !ok {
		pd = new(LineData)
		m.lines[l] = pd
	}
	*pd = d
}

// ReadWord returns the word at address a.
func (m *Memory) ReadWord(a Addr) Word {
	if d, ok := m.lines[LineOf(a)]; ok {
		return d.Get(a)
	}
	return 0
}

// WriteWord stores w at address a.
func (m *Memory) WriteWord(a Addr, w Word) {
	l := LineOf(a)
	d, ok := m.lines[l]
	if !ok {
		d = &LineData{}
		m.lines[l] = d
	}
	d.Set(a, w)
}

// Footprint reports how many distinct lines have been materialized.
func (m *Memory) Footprint() int {
	return len(m.lines)
}
