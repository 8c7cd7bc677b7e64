package sim

import (
	"slices"
	"testing"
	"testing/quick"
)

func TestClockAdvance(t *testing.T) {
	var c Clock
	if c.Now() != 0 {
		t.Fatalf("new clock at %d", c.Now())
	}
	for i := 1; i <= 10; i++ {
		if got := c.Advance(); got != Cycle(i) {
			t.Fatalf("advance %d: got %d", i, got)
		}
	}
}

func TestRandDeterminism(t *testing.T) {
	a := NewRand(42)
	b := NewRand(42)
	for i := 0; i < 1000; i++ {
		if a.Uint64() != b.Uint64() {
			t.Fatalf("same-seed generators diverged at draw %d", i)
		}
	}
}

func TestRandZeroSeed(t *testing.T) {
	r := NewRand(0)
	if r.Uint64() == 0 && r.Uint64() == 0 {
		t.Fatal("zero seed produced stuck generator")
	}
}

func TestRandForkIndependence(t *testing.T) {
	base := NewRand(7)
	f1 := base.Fork(1)
	f2 := base.Fork(2)
	same := 0
	for i := 0; i < 100; i++ {
		if f1.Uint64() == f2.Uint64() {
			same++
		}
	}
	if same > 2 {
		t.Fatalf("forked streams look correlated: %d/100 equal draws", same)
	}
}

func TestRandIntnBounds(t *testing.T) {
	r := NewRand(1)
	for i := 0; i < 10000; i++ {
		if v := r.Intn(7); v < 0 || v >= 7 {
			t.Fatalf("Intn(7) = %d", v)
		}
	}
	defer func() {
		if recover() == nil {
			t.Fatal("Intn(0) did not panic")
		}
	}()
	r.Intn(0)
}

func TestRandRange(t *testing.T) {
	r := NewRand(3)
	seen := make(map[int]bool)
	for i := 0; i < 1000; i++ {
		v := r.Range(5, 9)
		if v < 5 || v > 9 {
			t.Fatalf("Range(5,9) = %d", v)
		}
		seen[v] = true
	}
	for v := 5; v <= 9; v++ {
		if !seen[v] {
			t.Errorf("Range never produced %d", v)
		}
	}
}

func TestRandFloat64Property(t *testing.T) {
	if err := quick.Check(func(seed uint64) bool {
		r := NewRand(seed)
		for i := 0; i < 50; i++ {
			f := r.Float64()
			if f < 0 || f >= 1 {
				return false
			}
		}
		return true
	}, nil); err != nil {
		t.Error(err)
	}
}

func TestEventQueueOrder(t *testing.T) {
	var q Queue[int]
	var fired []int
	record := func(v int) { fired = append(fired, v) }
	q.At(5, 2)
	q.At(3, 1)
	q.At(5, 3) // same cycle: insertion order
	q.At(9, 4)
	q.Run(4, record)
	if len(fired) != 1 || fired[0] != 1 {
		t.Fatalf("after Run(4): %v", fired)
	}
	q.Run(5, record)
	if len(fired) != 3 || fired[1] != 2 || fired[2] != 3 {
		t.Fatalf("after Run(5): %v", fired)
	}
	if q.Empty() {
		t.Fatal("queue should still hold the cycle-9 event")
	}
	q.Run(100, record)
	if len(fired) != 4 || !q.Empty() {
		t.Fatalf("final: %v empty=%v", fired, q.Empty())
	}
}

func TestEventQueueCascade(t *testing.T) {
	// An event scheduled for the current cycle during Run must fire in
	// the same Run call.
	var q Queue[bool]
	fired := 0
	fire := func(again bool) {
		fired++
		if again {
			q.At(2, false)
		}
	}
	q.At(2, true)
	q.Run(2, fire)
	if fired != 2 {
		t.Fatalf("cascaded event did not fire: %d", fired)
	}
}

func TestEventQueueAfter(t *testing.T) {
	var q Queue[struct{}]
	fired := false
	fire := func(struct{}) { fired = true }
	q.After(10, 5, struct{}{})
	q.Run(14, fire)
	if fired {
		t.Fatal("fired early")
	}
	q.Run(15, fire)
	if !fired {
		t.Fatal("did not fire at deadline")
	}
}

func TestEventQueueLen(t *testing.T) {
	var q Queue[struct{}]
	for i := 0; i < 5; i++ {
		q.At(Cycle(i), struct{}{})
	}
	if q.Len() != 5 {
		t.Fatalf("Len = %d", q.Len())
	}
	q.Run(2, func(struct{}) {})
	if q.Len() != 2 {
		t.Fatalf("Len after partial run = %d", q.Len())
	}
}

// firing is one fired event: its key and value.
type firing struct {
	at  Cycle
	seq uint64
	v   int
}

// drain runs q dry cycle by cycle, recording each fired event with its
// key. The keys due in a cycle are read before its Run, which fires
// them in seq order.
func drain(q *Queue[int]) []firing {
	var out []firing
	for !q.Empty() {
		at, _ := q.NextAt()
		var seqs []uint64
		for _, e := range q.h {
			if e.at == at {
				seqs = append(seqs, e.seq)
			}
		}
		slices.Sort(seqs)
		q.Run(at, func(v int) {
			out = append(out, firing{at: at, seq: seqs[0], v: v})
			seqs = seqs[1:]
		})
	}
	return out
}

// TestQueueCloneFiresAlike: a queue cloned mid-run fires the same (at,
// seq, value) sequence as its original, whatever either did to its
// storage before, and FireNth(n) fires the n-th event in (at, seq)
// order.
func TestQueueCloneFiresAlike(t *testing.T) {
	var q, c Queue[int]
	c.At(1, -1) // stale contents the clone must overwrite
	for i := 0; i < 40; i++ {
		q.At(Cycle((i*7)%11), i) // repeated cycles: seq breaks the ties
		if i == 19 {
			q.Run(3, func(int) {})
		}
	}
	q.CloneInto(&c)
	pending := q.Len()
	q.At(50, 99) // scheduled after the clone on both: same seq on both
	c.At(50, 99)
	want, got := drain(&q), drain(&c)
	if len(want) != pending+1 || !slices.Equal(got, want) {
		t.Fatalf("clone fired %v\noriginal fired %v", got, want)
	}
	for i := 1; i < len(want); i++ {
		a, b := want[i-1], want[i]
		if a.at > b.at || a.at == b.at && a.seq >= b.seq {
			t.Fatalf("fired out of (at, seq) order: %+v before %+v", a, b)
		}
	}

	// FireNth: rebuild the same pending set and fire the n-th event by
	// rank; it must be the n-th firing of the ordered drain.
	for n := 0; n < 5; n++ {
		var r Queue[int]
		for i := 0; i < 12; i++ {
			r.At(Cycle((i*5)%7), i)
		}
		var order Queue[int]
		r.CloneInto(&order)
		ranked := drain(&order)
		if got := *r.Nth(n); got != ranked[n].v {
			t.Fatalf("Nth(%d) = %d, want %d", n, got, ranked[n].v)
		}
		fired := -1
		r.FireNth(n, func(v int) { fired = v })
		if fired != ranked[n].v || r.Len() != 11 {
			t.Fatalf("FireNth(%d) fired %d (len %d), want %d", n, fired, r.Len(), ranked[n].v)
		}
		rest := drain(&r)
		wantRest := append(slices.Clone(ranked[:n]), ranked[n+1:]...)
		if !slices.Equal(rest, wantRest) {
			t.Fatalf("after FireNth(%d) the rest fired %v, want %v", n, rest, wantRest)
		}
	}
}

// TestQueueZeroAlloc: once its storage has grown, a queue schedules,
// fires and clones without allocating — the events are values.
func TestQueueZeroAlloc(t *testing.T) {
	type ev struct {
		line, dst int
		body      [8]uint64
	}
	var q, c Queue[ev]
	sum := 0
	fire := func(e ev) { sum += e.line }
	round := func() {
		for i := 0; i < 16; i++ {
			q.After(Cycle(i), Cycle(i%3), ev{line: i, dst: i % 4})
		}
		q.CloneInto(&c)
		c.FireNth(c.Len()/2, fire)
		q.FireNth(0, fire)
		q.Run(100, fire)
		c.Run(100, fire)
	}
	round()
	if allocs := testing.AllocsPerRun(100, round); allocs != 0 {
		t.Fatalf("a warm queue allocates %v times per round; want 0", allocs)
	}
	if sum == 0 {
		t.Fatal("no event fired; the test is vacuous")
	}
}
