package cpu

import (
	"math/rand"
	"slices"
	"testing"

	"wbsim/internal/mem"
	"wbsim/internal/sim"
)

// TestCoreEventsOrder schedules random events, with delays from 1 to
// well past the wheel size (so both the buckets and the overflow queue
// hold events), and checks that they fire in (cycle, seq) order, each at
// its cycle. The queue runs at every due cycle, jumping over idle
// stretches as a core whose ticks the system's idle skip credits does,
// and nextAt must name the earliest pending cycle throughout.
func TestCoreEventsOrder(t *testing.T) {
	d := &DynInstr{seq: 1}
	overflowed := false
	for trial := 0; trial < 50; trial++ {
		rng := rand.New(rand.NewSource(int64(trial)))
		var q coreEvents
		q.init(2)
		type ev struct {
			at  sim.Cycle
			seq uint64
		}
		var want, got []ev
		pending := map[uint64]sim.Cycle{} // seq → due cycle
		now := sim.Cycle(rng.Intn(200))
		for step := 0; step < 400; step++ {
			// Schedule at the cycle just run, as handlers and the next
			// tick's hooks do.
			for i := rng.Intn(4); i > 0; i-- {
				delay := sim.Cycle(1 + rng.Intn(8))
				if rng.Intn(4) == 0 {
					delay = sim.Cycle(1 + rng.Intn(3*wheelSize))
				}
				want = append(want, ev{now + delay, q.seq})
				pending[q.seq] = now + delay
				q.after(now, delay, evComplete, d, mem.Word(q.seq))
			}
			overflowed = overflowed || !q.overflow.Empty()
			at, ok := q.nextAt()
			if ok != (len(pending) > 0) {
				t.Fatalf("trial %d cycle %d: nextAt ok=%v with %d pending", trial, now, ok, len(pending))
			}
			if !ok {
				now += sim.Cycle(1 + rng.Intn(3))
				continue
			}
			first := sim.Cycle(1<<63 - 1)
			for _, due := range pending {
				first = min(first, due)
			}
			if at != first {
				t.Fatalf("trial %d cycle %d: nextAt=%d, want %d", trial, now, at, first)
			}
			now = at
			if !q.due(now) {
				t.Fatalf("trial %d cycle %d: events due but due() is false", trial, now)
			}
			before := len(got)
			n := q.run(now, func(e coreEvent) {
				seq := uint64(e.val)
				if pending[seq] != now {
					t.Fatalf("trial %d cycle %d: fired event %d due at %d", trial, now, seq, pending[seq])
				}
				got = append(got, ev{now, seq})
				delete(pending, seq)
			})
			if n == 0 || n != len(got)-before {
				t.Fatalf("trial %d cycle %d: run reported %d events, fired %d", trial, now, n, len(got)-before)
			}
		}
		for q.n > 0 {
			now, _ = q.nextAt()
			q.run(now, func(e coreEvent) { got = append(got, ev{now, uint64(e.val)}) })
		}
		slices.SortStableFunc(want, func(a, b ev) int {
			if a.at != b.at {
				return int(a.at) - int(b.at)
			}
			return int(a.seq) - int(b.seq)
		})
		if !slices.Equal(got, want) {
			t.Fatalf("trial %d: fired %d events out of (cycle, seq) order", trial, len(got))
		}
	}
	if !overflowed {
		t.Fatal("no event went to the overflow queue")
	}
}

// TestCoreEventsRejectBadSchedules checks the queue's two invariants: a
// delay below 1 and a due cycle left unrun both panic.
func TestCoreEventsRejectBadSchedules(t *testing.T) {
	d := &DynInstr{seq: 1}
	mustPanic := func(name string, f func()) {
		t.Helper()
		defer func() {
			if recover() == nil {
				t.Errorf("%s did not panic", name)
			}
		}()
		f()
	}
	mustPanic("delay 0", func() {
		var q coreEvents
		q.init(1)
		q.after(10, 0, evComplete, d, 0)
	})
	mustPanic("skipped due cycle", func() {
		var q coreEvents
		q.init(1)
		q.after(10, 3, evComplete, d, 0)
		q.due(14)
	})
	mustPanic("bucket shared with a later cycle", func() {
		var q coreEvents
		q.init(1)
		q.after(10, 3, evComplete, d, 0)
		q.after(13+wheelSize-1, 1, evComplete, d, 0) // same bucket as cycle 13
		q.due(13 + wheelSize)
	})
}
