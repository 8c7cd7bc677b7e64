package cache

import "wbsim/internal/mem"

// Deep-copy support for the model checker's state cloning
// (coherence.Model.Clone). The structures here hand out interior
// pointers (*Entry frames, *MSHR entries) that the coherence layer
// stores in its own state, so the copy must translate a pointer into
// the original structure to its counterpart in the copy: FrameOf for
// arrays, a remap function for MSHR files.

// CloneInto overwrites dst — a zero Array, or one of the same geometry
// previously written by CloneInto — with a deep copy of a, reusing dst's
// frame and tag storage. LRU ticks and occupancy are preserved exactly,
// so victim selection in the copy matches the original. A set untouched
// in a keeps dst's frames, reset to invalid, so that a later clone that
// touches it does not reallocate them. Map frames of a to their copies
// with dst.FrameOf.
func (a *Array) CloneInto(dst *Array) {
	dst.sets, dst.ways = a.sets, a.ways
	dst.occupied, dst.lruTick = a.occupied, a.lruTick
	if len(dst.frames) != len(a.frames) {
		dst.frames = make([][]Entry, len(a.frames))
		dst.tags = make([][]mem.Line, len(a.frames))
	}
	for s, fs := range a.frames {
		if fs == nil {
			// An untouched set and a set of invalid frames behave alike:
			// every lookup misses and Victim hands out way 0 first.
			for w := range dst.frames[s] {
				dst.frames[s][w] = Entry{set: s, way: w}
			}
			continue
		}
		if len(dst.frames[s]) != len(fs) {
			dst.frames[s] = make([]Entry, len(fs))
			dst.tags[s] = make([]mem.Line, len(fs))
		}
		copy(dst.frames[s], fs)
		copy(dst.tags[s], a.tags[s])
	}
}

// FrameOf returns a's frame at the position of e, a frame of an array of
// the same geometry (nil maps to nil). After src.CloneInto(a) it maps
// each frame of src to its copy.
func (a *Array) FrameOf(e *Entry) *Entry {
	if e == nil {
		return nil
	}
	return &a.frames[e.set][e.way]
}

// Clone returns a deep copy of the MSHR file. clonePayload rewrites
// each live entry's Payload (the coherence layer stores transaction
// state there); nil shares payloads.
func (f *MSHRFile) Clone(clonePayload func(any) any) *MSHRFile {
	out := &MSHRFile{index: make(map[mem.Line][]*MSHR, len(f.index))}
	f.CloneInto(out, clonePayload, nil)
	return out
}

// CloneInto overwrites dst — a file of the same capacity — with f's
// contents, reusing dst's entry and index storage. Invalid entries get a
// nil payload so dst never retains a stale pointer into the source.
// universe, when non-nil, must contain every line the file can index
// (the model checker's fixed line set); it replaces the index-map
// iterations with ordered lookups, which is cheaper for the tiny maps
// the checker clones millions of times.
func (f *MSHRFile) CloneInto(dst *MSHRFile, clonePayload func(any) any, universe []mem.Line) {
	if len(dst.entries) != len(f.entries) {
		dst.entries = make([]MSHR, len(f.entries))
	}
	copy(dst.entries, f.entries)
	dst.capacity, dst.reserved = f.capacity, f.reserved
	dst.inUse, dst.resInUse = f.inUse, f.resInUse
	for i := range dst.entries {
		if dst.entries[i].valid {
			if clonePayload != nil {
				dst.entries[i].Payload = clonePayload(dst.entries[i].Payload)
			}
		} else {
			dst.entries[i].Payload = nil
		}
	}
	remap := func(m *MSHR) *MSHR {
		for i := range f.entries {
			if &f.entries[i] == m {
				return &dst.entries[i]
			}
		}
		panic("cache: remapping MSHR foreign to the cloned file")
	}
	if universe != nil {
		// Drop the lines f does not index first, keeping their slices
		// for the lines dst does not index yet.
		for _, l := range universe {
			if _, keep := f.index[l]; keep {
				continue
			}
			if es, ok := dst.index[l]; ok {
				dst.spare = append(dst.spare, es[:0])
				delete(dst.index, l)
			}
		}
		indexed := 0
		for _, l := range universe {
			es, ok := f.index[l]
			if !ok {
				continue
			}
			indexed++
			nes, had := dst.index[l]
			if n := len(dst.spare); !had && n > 0 {
				nes = dst.spare[n-1]
				dst.spare = dst.spare[:n-1]
			}
			nes = nes[:0]
			for _, e := range es {
				nes = append(nes, remap(e))
			}
			dst.index[l] = nes
		}
		if indexed != len(f.index) {
			panic("cache: MSHR file indexes a line outside the given universe")
		}
		return
	}
	//wbsim:nondet -- each delete decision depends only on its own key
	for l := range dst.index {
		if _, ok := f.index[l]; !ok {
			delete(dst.index, l)
		}
	}
	//wbsim:nondet -- per-key rebuild; remap is a pure pointer translation
	for l, es := range f.index {
		nes := dst.index[l][:0]
		for _, e := range es {
			nes = append(nes, remap(e))
		}
		dst.index[l] = nes
	}
}
