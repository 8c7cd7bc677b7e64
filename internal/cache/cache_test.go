package cache

import (
	"math"
	"runtime"
	"slices"
	"testing"
	"testing/quick"

	"wbsim/internal/mem"
)

func TestArrayGeometry(t *testing.T) {
	a := NewArray(64, 8)
	if a.Sets() != 8 || a.Ways() != 8 {
		t.Fatalf("sets=%d ways=%d", a.Sets(), a.Ways())
	}
	defer func() {
		if recover() == nil {
			t.Fatal("bad geometry did not panic")
		}
	}()
	NewArray(10, 3)
}

func TestArrayInstallLookup(t *testing.T) {
	a := NewArray(16, 2)
	v := a.Victim(5, nil)
	if v == nil || v.Valid() {
		t.Fatal("fresh array must offer an invalid frame")
	}
	e := a.Install(v, 5)
	if a.Lookup(5) != e || !e.Valid() {
		t.Fatal("install/lookup mismatch")
	}
	if a.Occupancy() != 1 {
		t.Fatalf("occupancy = %d", a.Occupancy())
	}
	a.Evict(e)
	if a.Lookup(5) != nil || e.Valid() || a.Occupancy() != 0 {
		t.Fatal("evict did not clear")
	}
}

// sameSetLines returns n distinct lines mapping to the same set as seed.
func sameSetLines(a *Array, seed mem.Line, n int) []mem.Line {
	want := a.SetIndex(seed)
	lines := []mem.Line{seed}
	for l := seed + 1; len(lines) < n; l++ {
		if a.SetIndex(l) == want {
			lines = append(lines, l)
		}
	}
	return lines
}

func TestArrayLRUVictim(t *testing.T) {
	a := NewArray(4, 2) // 2 sets, 2 ways
	ls := sameSetLines(a, 0, 3)
	e0 := a.Install(a.Victim(ls[0], nil), ls[0])
	e1 := a.Install(a.Victim(ls[1], nil), ls[1])
	// Touch the first so the second becomes LRU.
	a.Touch(e0)
	v := a.Victim(ls[2], nil) // set full: LRU victim
	if v != e1 {
		t.Fatalf("victim holds %v, want %v", v.Line, e1.Line)
	}
}

func TestArrayVictimKeep(t *testing.T) {
	a := NewArray(4, 2)
	ls := sameSetLines(a, 0, 3)
	a.Install(a.Victim(ls[0], nil), ls[0])
	a.Install(a.Victim(ls[1], nil), ls[1])
	// Keep everything: no victim available.
	if v := a.Victim(ls[2], func(*Entry) bool { return true }); v != nil {
		t.Fatal("keep-all should yield no victim")
	}
	// Keep only the first: the second's frame is the only candidate.
	v := a.Victim(ls[2], func(e *Entry) bool { return e.Line == ls[0] })
	if v == nil || v.Line != ls[1] {
		t.Fatal("keep predicate ignored")
	}
}

func TestArrayInstallPanics(t *testing.T) {
	a := NewArray(4, 2)
	e := a.Install(a.Victim(0, nil), 0)
	t.Run("valid frame", func(t *testing.T) {
		defer func() {
			if recover() == nil {
				t.Fatal("double install did not panic")
			}
		}()
		a.Install(e, 4)
	})
	t.Run("wrong set", func(t *testing.T) {
		// Find a line mapping to the other set.
		other := mem.Line(1)
		for a.SetIndex(other) == a.SetIndex(0) {
			other++
		}
		v := a.Victim(other, nil)
		defer func() {
			if recover() == nil {
				t.Fatal("cross-set install did not panic")
			}
		}()
		a.Install(v, 0)
	})
}

func TestArrayForEach(t *testing.T) {
	a := NewArray(8, 2)
	for l := mem.Line(0); l < 4; l++ {
		a.Install(a.Victim(l, nil), l)
	}
	seen := map[mem.Line]bool{}
	a.ForEach(func(e *Entry) { seen[e.Line] = true })
	if len(seen) != 4 {
		t.Fatalf("ForEach visited %d", len(seen))
	}
}

// TestArrayProperty exercises random install/evict sequences, checking
// that lookup always agrees with the set of installed lines and capacity
// is never exceeded.
func TestArrayProperty(t *testing.T) {
	if err := quick.Check(func(ops []uint8) bool {
		a := NewArray(32, 4)
		live := map[mem.Line]bool{}
		for _, op := range ops {
			line := mem.Line(op % 64)
			if e := a.Lookup(line); e != nil {
				if !live[line] {
					return false
				}
				a.Evict(e)
				delete(live, line)
				continue
			}
			if live[line] {
				return false
			}
			v := a.Victim(line, nil)
			if v == nil {
				return false // no keep predicate: must always find one
			}
			if v.Valid() {
				delete(live, v.Line)
				a.Evict(v)
			}
			a.Install(v, line)
			live[line] = true
		}
		return a.Occupancy() == len(live) && a.Occupancy() <= 32
	}, nil); err != nil {
		t.Error(err)
	}
}

func TestMSHRBasics(t *testing.T) {
	f := NewMSHRFile[int](4, 1)
	if f.Capacity() != 4 {
		t.Fatalf("capacity = %d", f.Capacity())
	}
	m1 := f.Allocate(10)
	m2 := f.Allocate(20)
	m3 := f.Allocate(30)
	if m1 == nil || m2 == nil || m3 == nil {
		t.Fatal("normal allocations failed")
	}
	// Normal pool (3 of 4) exhausted.
	if f.Allocate(40) != nil {
		t.Fatal("normal pool over-allocated into the reserve")
	}
	if !f.FullForNormal() {
		t.Fatal("FullForNormal false with full normal pool")
	}
	// The reserved entry is still available for a SoS load.
	r := f.AllocateReserved(40)
	if r == nil || !r.Reserved {
		t.Fatal("reserved allocation failed")
	}
	if f.AllocateReserved(50) != nil {
		t.Fatal("over-allocated beyond capacity")
	}
	f.Free(m2)
	if f.InUse() != 3 {
		t.Fatalf("in use = %d", f.InUse())
	}
	if f.Allocate(50) == nil {
		t.Fatal("freed entry not reusable")
	}
}

func TestMSHRLookup(t *testing.T) {
	f := NewMSHRFile[int](8, 2)
	a := f.Allocate(5)
	b := f.AllocateReserved(5) // second MSHR on the same line (SoS bypass)
	if f.Lookup(5) != a {
		t.Fatal("Lookup should return the oldest")
	}
	all := f.LookupAll(5, nil)
	if len(all) != 2 || all[0] != a || all[1] != b {
		t.Fatalf("LookupAll = %v", all)
	}
	f.Free(a)
	if f.Lookup(5) != b {
		t.Fatal("Lookup after free")
	}
	f.Free(b)
	if f.Lookup(5) != nil {
		t.Fatal("Lookup after all freed")
	}
}

func TestMSHRReservedNotUsedWhenFree(t *testing.T) {
	f := NewMSHRFile[int](4, 1)
	r := f.AllocateReserved(1)
	if r.Reserved {
		t.Fatal("reserved pool used while normal space remains")
	}
}

func TestMSHRFreePanics(t *testing.T) {
	f := NewMSHRFile[int](2, 1)
	m := f.Allocate(1)
	f.Free(m)
	defer func() {
		if recover() == nil {
			t.Fatal("double free did not panic")
		}
	}()
	f.Free(m)
}

// TestMSHRProperty drives random allocate/free traffic and checks the
// partitioning invariant: normal allocations never encroach on the
// reserve, and a reserved allocation succeeds whenever any entry is free.
func TestMSHRProperty(t *testing.T) {
	if err := quick.Check(func(ops []uint8) bool {
		f := NewMSHRFile[int](8, 2)
		var live []*MSHR[int]
		normalUsed := func() int {
			n := 0
			for _, m := range live {
				if !m.Reserved {
					n++
				}
			}
			return n
		}
		for _, op := range ops {
			switch {
			case op%3 == 0 && len(live) > 0:
				f.Free(live[0])
				live = live[1:]
			case op%3 == 1:
				m := f.Allocate(mem.Line(op))
				if m == nil {
					if normalUsed() < 6 {
						return false // normal pool should have had room
					}
				} else {
					if m.Reserved {
						return false // Allocate must never touch the reserve
					}
					live = append(live, m)
				}
			default:
				m := f.AllocateReserved(mem.Line(op))
				if m == nil {
					if f.InUse() < 8 {
						return false // reserve must succeed if space exists
					}
				} else {
					live = append(live, m)
				}
			}
			if f.InUse() != len(live) {
				return false
			}
		}
		return true
	}, nil); err != nil {
		t.Error(err)
	}
}

// TestMSHRFileMatchesMapOracle drives random Allocate, AllocateReserved,
// Free, Lookup and LookupAll traffic over three lines and checks every
// step against an oracle kept here: the line-indexed map of slices the
// file once used, which appends on allocation and deletes in place on
// free, so each line's MSHRs read oldest first. The walks must reach
// two live entries on one line (the SoS bypass) and an entry slot
// reused after a Free, and a copy made with CloneInto midway must
// answer every lookup with the entries at the same positions.
func TestMSHRFileMatchesMapOracle(t *testing.T) {
	const capacity, reserved = 6, 2
	lines := []mem.Line{3, 17, 40}
	sameLine, reused := 0, 0
	for seed := uint64(1); seed <= 200; seed++ {
		r := seed
		next := func(n int) int {
			r = r*6364136223846793005 + 1442695040888963407
			return int(r>>33) % n
		}
		f := NewMSHRFile[int](capacity, reserved)
		oracle := map[mem.Line][]*MSHR[int]{}
		var live []*MSHR[int]
		used := map[*MSHR[int]]bool{}
		var copyOf MSHRFile[int]
		index := func(file *MSHRFile[int], m *MSHR[int]) int {
			for i := range file.entries {
				if &file.entries[i] == m {
					return i
				}
			}
			return -1
		}
		check := func(step int, l mem.Line) {
			t.Helper()
			want := oracle[l]
			var first *MSHR[int]
			if len(want) > 0 {
				first = want[0]
			}
			if got := f.Lookup(l); got != first {
				t.Fatalf("seed %d step %d: Lookup(%v) = %p, oracle %p", seed, step, l, got, first)
			}
			var buf [2]*MSHR[int]
			pre := append(buf[:0], nil) // LookupAll appends after what dst holds
			got := f.LookupAll(l, pre)
			if got[0] != nil || !slices.Equal(got[1:], want) {
				t.Fatalf("seed %d step %d: LookupAll(%v) = %v, oracle %v", seed, step, l, got[1:], want)
			}
		}
		for step := 0; step < 60; step++ {
			l := lines[next(len(lines))]
			switch op := next(5); {
			case op == 0 && len(live) > 0:
				i := next(len(live))
				m := live[i]
				live = append(live[:i], live[i+1:]...)
				es := oracle[m.Line]
				k := slices.Index(es, m)
				es = append(es[:k], es[k+1:]...)
				if len(es) == 0 {
					delete(oracle, m.Line)
				} else {
					oracle[m.Line] = es
				}
				f.Free(m)
			case op <= 2:
				var m *MSHR[int]
				if op == 1 {
					m = f.Allocate(l)
				} else {
					m = f.AllocateReserved(l)
				}
				if m == nil {
					break
				}
				if used[m] {
					reused++
				}
				used[m] = true
				if len(oracle[l]) > 0 {
					sameLine++
				}
				live = append(live, m)
				oracle[l] = append(oracle[l], m)
			}
			if f.InUse() != len(live) {
				t.Fatalf("seed %d step %d: InUse = %d, %d live", seed, step, f.InUse(), len(live))
			}
			for _, l := range lines {
				check(step, l)
			}
			if step == 30 {
				f.CloneInto(&copyOf, func(dst, src *int) { *dst = *src })
				for _, l := range lines {
					var a, b [capacity]*MSHR[int]
					orig, cp := f.LookupAll(l, a[:0]), copyOf.LookupAll(l, b[:0])
					if len(orig) != len(cp) {
						t.Fatalf("seed %d: the copy holds %d MSHRs for %v, the original %d", seed, len(cp), l, len(orig))
					}
					for i := range orig {
						if index(f, orig[i]) != index(&copyOf, cp[i]) {
							t.Fatalf("seed %d: the copy orders line %v's MSHRs differently", seed, l)
						}
					}
				}
			}
		}
	}
	if sameLine == 0 || reused == 0 {
		t.Fatalf("walks met %d same-line allocations and %d reused slots; both checks need some", sameLine, reused)
	}
}

// TestMSHRFileZeroAlloc pins the steady state of a file typed by a
// transaction with a slice: once warm, claiming an entry, growing its
// transaction's slice back to its earlier length, freeing it, and
// copying the file with CloneInto allocate nothing, because an entry
// keeps the storage its previous holder grew and the copy reuses the
// destination's.
func TestMSHRFileZeroAlloc(t *testing.T) {
	type txn struct{ waiters []int }
	copyTxn := func(dst, src *txn) { dst.waiters = append(dst.waiters[:0], src.waiters...) }
	f := NewMSHRFile[txn](4, 1)
	var copyOf MSHRFile[txn]
	cycle := func() {
		for l := mem.Line(1); l <= 3; l++ {
			m := f.Allocate(l)
			m.Txn.waiters = m.Txn.waiters[:0]
			for i := 0; i < 8; i++ {
				m.Txn.waiters = append(m.Txn.waiters, i)
			}
		}
		f.CloneInto(&copyOf, copyTxn)
		f.ForEach(f.Free)
	}
	cycle() // warm
	if allocs := testing.AllocsPerRun(100, cycle); allocs != 0 {
		t.Fatalf("a warm claim, grow, copy and free cycle allocates %.1f objects, want 0", allocs)
	}
	if n := copyOf.InUse(); n != 3 {
		t.Fatalf("the copy holds %d live entries, want 3", n)
	}
	for l := mem.Line(1); l <= 3; l++ {
		if m := copyOf.Lookup(l); m == nil || len(m.Txn.waiters) != 8 {
			t.Fatalf("the copy lost line %v's transaction: %+v", l, m)
		}
	}
}

// sliceArrayOracle is the array as it was before set storage was carved
// from chunks: two per-set slice indexes allocated up front, and a set's
// frames and tags allocated on its first touch. TestArrayMatchesSliceOracle
// drives it beside Array.
type sliceArrayOracle struct {
	sets     int
	ways     int
	frames   [][]Entry // frames[set], nil until the set is first touched
	tags     [][]mem.Line
	occupied int
	lruTick  uint64
}

func newSliceArrayOracle(capacityLines, ways int) *sliceArrayOracle {
	return &sliceArrayOracle{
		sets:   capacityLines / ways,
		ways:   ways,
		frames: make([][]Entry, capacityLines/ways),
		tags:   make([][]mem.Line, capacityLines/ways),
	}
}

func (a *sliceArrayOracle) setFrames(set int) []Entry {
	fs := a.frames[set]
	if fs == nil {
		fs = make([]Entry, a.ways)
		for i := range fs {
			fs[i].set = int32(set)
			fs[i].way = uint16(i)
		}
		a.frames[set] = fs
		a.tags[set] = make([]mem.Line, a.ways)
	}
	return fs
}

func (a *sliceArrayOracle) SetIndex(l mem.Line) int {
	return int((uint64(l) * 0x9e3779b97f4a7c15 >> 17) % uint64(a.sets))
}

func (a *sliceArrayOracle) Lookup(l mem.Line) *Entry {
	set := a.SetIndex(l)
	for i, t := range a.tags[set] {
		if t == l {
			if e := &a.frames[set][i]; e.valid {
				return e
			}
		}
	}
	return nil
}

func (a *sliceArrayOracle) Touch(e *Entry) {
	a.lruTick++
	e.lru = a.lruTick
}

func (a *sliceArrayOracle) Victim(l mem.Line, keep func(*Entry) bool) *Entry {
	fs := a.setFrames(a.SetIndex(l))
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

func (a *sliceArrayOracle) Install(e *Entry, l mem.Line) *Entry {
	if e.valid || a.SetIndex(l) != int(e.set) {
		panic("oracle: bad install")
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

func (a *sliceArrayOracle) LRURank(e *Entry) int {
	rank := 0
	for i := range a.frames[e.set] {
		o := &a.frames[e.set][i]
		if o.valid && o != e && o.lru < e.lru {
			rank++
		}
	}
	return rank
}

func (a *sliceArrayOracle) Evict(e *Entry) {
	if !e.valid {
		return
	}
	e.valid = false
	e.Dirty = false
	e.State = 0
	a.occupied--
}

func (a *sliceArrayOracle) Occupancy() int { return a.occupied }

func (a *sliceArrayOracle) ForEach(f func(*Entry)) {
	for _, fs := range a.frames {
		for i := range fs {
			if fs[i].valid {
				f(&fs[i])
			}
		}
	}
}

func (a *sliceArrayOracle) CloneInto(dst *sliceArrayOracle) {
	dst.sets, dst.ways = a.sets, a.ways
	dst.occupied, dst.lruTick = a.occupied, a.lruTick
	if len(dst.frames) != len(a.frames) {
		dst.frames = make([][]Entry, len(a.frames))
		dst.tags = make([][]mem.Line, len(a.frames))
	}
	for s, fs := range a.frames {
		if fs == nil {
			for w := range dst.frames[s] {
				dst.frames[s][w] = Entry{set: int32(s), way: uint16(w)}
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

func (a *sliceArrayOracle) FrameOf(e *Entry) *Entry {
	if e == nil {
		return nil
	}
	return &a.frames[e.set][e.way]
}

// arrayPair is an Array and the oracle it must match.
type arrayPair struct {
	a *Array
	o *sliceArrayOracle
}

// frameDump lists every valid frame by value, in ForEach order.
func frameDump(forEach func(func(*Entry))) []Entry {
	var es []Entry
	forEach(func(e *Entry) { es = append(es, *e) })
	return es
}

// TestArrayMatchesSliceOracle drives random Install, Victim (with and
// without a keep predicate), Evict, Touch, Lookup, LRURank, ForEach,
// SetIndex and CloneInto with FrameOf through Array and the two-slice
// oracle it replaced, and requires equal results: the same frame (by
// set, way and contents) from every call. Clones ping-pong between two
// arrays, so a copy lands on a destination that touched sets its source
// did not, and the walk continues on the copy.
func TestArrayMatchesSliceOracle(t *testing.T) {
	geometries := []struct{ sets, ways int }{
		{1, 1},
		{1, 2}, // the model checker's LLC over two lines
		{2, 2},
		{3, 2}, // not a power of two
		{64, 8},
		{2048, 8},
	}
	stale, fullChunks := 0, 0 // valid sets a clone resets; arrays that reached full-size chunks
	for _, g := range geometries {
		capacity := g.sets * g.ways
		for seed := uint64(1); seed <= 20; seed++ {
			r := seed
			next := func(n int) int {
				r = r*6364136223846793005 + 1442695040888963407
				return int(r>>33) % n
			}
			cur := arrayPair{NewArray(capacity, g.ways), newSliceArrayOracle(capacity, g.ways)}
			var other arrayPair // the next clone's destination
			// Lines come from a window a few times the capacity, so sets
			// fill and evict, and from a few lines that share one set, so
			// even a big array sees conflicts.
			hot := sameSetLines(cur.a, mem.Line(seed), g.ways+2)
			line := func() mem.Line {
				if next(2) == 0 {
					return hot[next(len(hot))]
				}
				return mem.Line(next(4*capacity + 8))
			}
			same := func(step int, what string, e, oe *Entry) {
				t.Helper()
				if (e == nil) != (oe == nil) {
					t.Fatalf("%d×%d seed %d step %d: %s = %v, oracle %v", g.sets, g.ways, seed, step, what, e, oe)
				}
				if e != nil && *e != *oe {
					t.Fatalf("%d×%d seed %d step %d: %s = %+v, oracle %+v", g.sets, g.ways, seed, step, what, *e, *oe)
				}
			}
			for step := 0; step < 400; step++ {
				a, o := cur.a, cur.o
				l := line()
				switch op := next(8); op {
				case 0, 1: // fill: the victim for l, evicted if need be
					if a.Lookup(l) != nil {
						break
					}
					state := next(3)
					var keep func(*Entry) bool
					if next(2) == 0 {
						keep = func(e *Entry) bool { return e.State == state }
					}
					v, ov := a.Victim(l, keep), o.Victim(l, keep)
					same(step, "Victim", v, ov)
					if v == nil {
						break
					}
					if v.Valid() {
						a.Evict(v)
						o.Evict(ov)
					}
					e, oe := a.Install(v, l), o.Install(ov, l)
					e.State = next(3)
					oe.State = e.State
					e.Dirty = next(2) == 0
					oe.Dirty = e.Dirty
					e.Data[0] = mem.Word(step)
					oe.Data[0] = e.Data[0]
				case 2: // evict
					e, oe := a.Lookup(l), o.Lookup(l)
					same(step, "Lookup", e, oe)
					if e != nil {
						a.Evict(e)
						o.Evict(oe)
					}
				case 3: // touch and rank
					e, oe := a.Lookup(l), o.Lookup(l)
					same(step, "Lookup", e, oe)
					if e != nil {
						if rk, ork := a.LRURank(e), o.LRURank(oe); rk != ork {
							t.Fatalf("%d×%d seed %d step %d: LRURank = %d, oracle %d", g.sets, g.ways, seed, step, rk, ork)
						}
						a.Touch(e)
						o.Touch(oe)
					}
				case 4: // a victim that is not taken
					same(step, "Victim", a.Victim(l, nil), o.Victim(l, nil))
				case 5: // set mapping
					if s, os := a.SetIndex(l), o.SetIndex(l); s != os {
						t.Fatalf("%d×%d seed %d step %d: SetIndex(%v) = %d, oracle %d", g.sets, g.ways, seed, step, l, s, os)
					}
				case 6: // clone, stir the source, and go on with the copy
					if other.a == nil {
						other = arrayPair{new(Array), new(sliceArrayOracle)}
					}
					for s, v := range other.a.index {
						if v == 0 || a.index[s] != 0 {
							continue
						}
						if slices.ContainsFunc(other.a.set(s).frames, func(e Entry) bool { return e.valid }) {
							stale++
						}
					}
					a.CloneInto(other.a)
					o.CloneInto(other.o)
					if other.a.FrameOf(nil) != nil {
						t.Fatal("FrameOf(nil) is not nil")
					}
					a.ForEach(func(e *Entry) {
						c := other.a.FrameOf(e)
						if c == e || c != other.a.Lookup(e.Line) {
							t.Fatalf("%d×%d seed %d step %d: FrameOf(%v) is not the copy's frame of it", g.sets, g.ways, seed, step, e.Line)
						}
						same(step, "FrameOf", c, other.o.FrameOf(o.Lookup(e.Line)))
					})
					snap := frameDump(other.a.ForEach)
					for i := 0; i < 3; i++ { // writes to the source must not reach the copy
						l := line()
						if a.Lookup(l) != nil {
							continue
						}
						v, ov := a.Victim(l, nil), o.Victim(l, nil)
						same(step, "Victim", v, ov)
						if v.Valid() {
							v.Data[1]++
							ov.Data[1]++
							a.Evict(v)
							o.Evict(ov)
						}
						a.Install(v, l).Data[1]++
						o.Install(ov, l).Data[1]++
					}
					if got := frameDump(other.a.ForEach); !slices.Equal(got, snap) {
						t.Fatalf("%d×%d seed %d step %d: writes to the source changed the copy", g.sets, g.ways, seed, step)
					}
					cur, other = other, cur
				}
				if n, on := cur.a.Occupancy(), cur.o.Occupancy(); n != on {
					t.Fatalf("%d×%d seed %d step %d: Occupancy = %d, oracle %d", g.sets, g.ways, seed, step, n, on)
				}
				if step%16 == 0 {
					if d, od := frameDump(cur.a.ForEach), frameDump(cur.o.ForEach); !slices.Equal(d, od) {
						t.Fatalf("%d×%d seed %d step %d: ForEach visits %v, oracle %v", g.sets, g.ways, seed, step, d, od)
					}
				}
			}
			if len(cur.a.slots) > 2*maxChunkSets {
				fullChunks++
			}
		}
	}
	if stale == 0 || fullChunks == 0 {
		t.Fatalf("clones reset %d sets with valid frames their source had not touched, and %d arrays reached full-size chunks; both checks need some", stale, fullChunks)
	}
}

// TestNewArrayAllocBudget pins construction to the index: a 1 MB LLC
// bank (2048 sets of 8 ways) may allocate one pointer per set plus a
// little for the array itself, because frames and tags wait for the
// set's first touch. The least of a few measurements is taken, so an
// allocation elsewhere in the process that lands inside one cannot fail
// the test.
func TestNewArrayAllocBudget(t *testing.T) {
	const sets, ways = 2048, 8
	const budget = 8*sets + 512
	least := uint64(math.MaxUint64)
	var before, after runtime.MemStats
	for i := 0; i < 5; i++ {
		runtime.ReadMemStats(&before)
		a := NewArray(sets*ways, ways)
		runtime.ReadMemStats(&after)
		runtime.KeepAlive(a)
		least = min(least, after.TotalAlloc-before.TotalAlloc)
	}
	if least > budget {
		t.Fatalf("NewArray(%d, %d) allocates %d B, want at most %d", sets*ways, ways, least, budget)
	}
}

// BenchmarkArrayLookup measures the tag match: lookups of an L1-shaped
// array (64 sets of 8 ways, full) and of an LLC-bank-shaped one (2048
// sets of 8 ways, 128 sets touched, as a 16-core fft run leaves each
// bank), half of them hits.
func BenchmarkArrayLookup(b *testing.B) {
	for _, g := range []struct {
		name        string
		sets, lines int
	}{{"l1", 64, 512}, {"llc", 2048, 1024}} {
		b.Run(g.name, func(b *testing.B) {
			const ways = 8
			a := NewArray(g.sets*ways, ways)
			var lines []mem.Line
			for l := mem.Line(0); len(lines) < g.lines; l++ {
				if g.sets == 2048 && a.SetIndex(l) >= 128 {
					continue
				}
				if v := a.Victim(l, nil); !v.Valid() {
					a.Install(v, l)
					lines = append(lines, l)
				}
			}
			probes := make([]mem.Line, 0, 2*len(lines))
			for _, l := range lines {
				probes = append(probes, l, l+1<<30) // a hit and a miss
			}
			mask := len(probes) - 1 // a power of two
			b.ResetTimer()
			hits := 0
			for i := 0; i < b.N; i++ {
				if a.Lookup(probes[i&mask]) != nil {
					hits++
				}
			}
			if b.N >= len(probes) && hits < b.N/2-1 {
				b.Fatalf("%d hits in %d lookups", hits, b.N)
			}
		})
	}
}
