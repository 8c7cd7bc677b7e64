package cache

// Deep-copy support for the model checker's state cloning
// (coherence.Model.Clone). An array hands out interior *Entry frames
// that the coherence layer stores in its own state, so the copy must
// translate a frame of the original to its counterpart in the copy
// (FrameOf). An MSHR file holds no pointers but those inside its
// transactions, which the caller copies.

// CloneInto overwrites dst — a zero Array, or one of the same geometry
// previously written by CloneInto — with a deep copy of a, reusing dst's
// frame and tag storage. LRU ticks and occupancy are preserved exactly,
// so victim selection in the copy matches the original. A set untouched
// in a keeps dst's frames, reset to invalid, so that a later clone that
// touches it does not carve them again; a set a touched and dst did not
// is carved from dst's own chunks. Map frames of a to their copies with
// dst.FrameOf.
func (a *Array) CloneInto(dst *Array) {
	if len(dst.index) != len(a.index) || dst.ways != a.ways {
		// A first copy, or one of another geometry: dst's storage
		// does not fit, so it starts afresh.
		dst.index = make([]int32, len(a.index))
		dst.slots, dst.spareFrames, dst.spareTags = nil, nil, nil
	}
	dst.sets, dst.ways = a.sets, a.ways
	dst.occupied, dst.lruTick = a.occupied, a.lruTick
	for s := range a.index {
		fs, d := a.set(s), dst.set(s)
		if fs == nil {
			// An untouched set and a set of invalid frames behave alike:
			// every lookup misses and Victim hands out way 0 first.
			if d != nil {
				for w := range d.frames {
					d.frames[w] = Entry{set: int32(s), way: uint16(w)}
				}
			}
			continue
		}
		if d == nil {
			d = dst.carve(s)
		}
		copy(d.frames, fs.frames)
		copy(d.tags, fs.tags)
	}
}

// FrameOf returns a's frame at the position of e, a frame of an array of
// the same geometry (nil maps to nil). After src.CloneInto(a) it maps
// each frame of src to its copy.
func (a *Array) FrameOf(e *Entry) *Entry {
	if e == nil {
		return nil
	}
	return &a.set(int(e.set)).frames[e.way]
}

// CloneInto overwrites dst — a zero file, or one CloneInto wrote
// before — with f's contents, reusing dst's entry storage. copyTxn
// copies a live entry's transaction into dst's entry at the same
// position, which still holds that entry's previous transaction, so the
// copy can reuse the storage of its slices. A free entry keeps dst's own
// stale transaction: its next holder resets it, and dst never shares a
// slice with f.
func (f *MSHRFile[T]) CloneInto(dst *MSHRFile[T], copyTxn func(dst, src *T)) {
	entries := dst.entries
	if len(entries) != len(f.entries) {
		entries = make([]MSHR[T], len(f.entries))
	}
	for i := range f.entries {
		e, o := &entries[i], &f.entries[i]
		if o.valid {
			copyTxn(&e.Txn, &o.Txn)
		}
		e.Line, e.Reserved, e.valid, e.stamp = o.Line, o.Reserved, o.valid, o.stamp
	}
	*dst = *f
	dst.entries = entries
}
