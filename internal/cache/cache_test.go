package cache

import (
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
