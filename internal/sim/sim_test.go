package sim

import (
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
	var q EventQueue
	var fired []int
	record := func(arg any) { fired = append(fired, arg.(int)) }
	q.AtCall(5, record, 2)
	q.AtCall(3, record, 1)
	q.AtCall(5, record, 3) // same cycle: insertion order
	q.AtCall(9, record, 4)
	q.Run(4)
	if len(fired) != 1 || fired[0] != 1 {
		t.Fatalf("after Run(4): %v", fired)
	}
	q.Run(5)
	if len(fired) != 3 || fired[1] != 2 || fired[2] != 3 {
		t.Fatalf("after Run(5): %v", fired)
	}
	if q.Empty() {
		t.Fatal("queue should still hold the cycle-9 event")
	}
	q.Run(100)
	if len(fired) != 4 || !q.Empty() {
		t.Fatalf("final: %v empty=%v", fired, q.Empty())
	}
}

func TestEventQueueCascade(t *testing.T) {
	// An event scheduled for the current cycle during Run must fire in
	// the same Run call.
	var q EventQueue
	fired := 0
	var fire func(any)
	fire = func(arg any) {
		fired++
		if arg.(bool) {
			q.AtCall(2, fire, false)
		}
	}
	q.AtCall(2, fire, true)
	q.Run(2)
	if fired != 2 {
		t.Fatalf("cascaded event did not fire: %d", fired)
	}
}

func TestEventQueueAfter(t *testing.T) {
	var q EventQueue
	fired := false
	q.AfterCall(10, 5, func(any) { fired = true }, nil)
	q.Run(14)
	if fired {
		t.Fatal("fired early")
	}
	q.Run(15)
	if !fired {
		t.Fatal("did not fire at deadline")
	}
}

func TestEventQueueLen(t *testing.T) {
	var q EventQueue
	for i := 0; i < 5; i++ {
		q.AtCall(Cycle(i), func(any) {}, nil)
	}
	if q.Len() != 5 {
		t.Fatalf("Len = %d", q.Len())
	}
	q.Run(2)
	if q.Len() != 2 {
		t.Fatalf("Len after partial run = %d", q.Len())
	}
}
