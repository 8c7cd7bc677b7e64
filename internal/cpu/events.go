package cpu

import (
	"wbsim/internal/mem"
	"wbsim/internal/sim"
)

// The core's deferred actions are few in kind — an instruction completes
// with a result, or a branch resolves — so instead of the generic
// closure-based sim.EventQueue the core uses a typed queue: each event is
// a small struct in a reusable slice-backed heap. This removes one
// closure allocation per executed instruction (the simulator's single
// hottest allocation site) and keeps System.Step allocation-free in
// steady state. Firing order is identical to the generic queue: (cycle,
// insertion seq), and the key is unique per event, so behaviour does not
// depend on heap layout. An event names its instruction by instrRef: an
// instruction squashed before its event fires may have handed its window
// slot to a younger one, and the event must then do nothing.

type coreEventKind uint8

const (
	evComplete coreEventKind = iota // complete(r.d, val)
	evBranch                        // resolveBranch(r.d)
)

type coreEvent struct {
	at   sim.Cycle
	seq  uint64
	kind coreEventKind
	r    instrRef
	val  mem.Word
}

type coreEvents struct {
	h   []coreEvent
	seq uint64
}

func (q *coreEvents) after(now, delay sim.Cycle, kind coreEventKind, d *DynInstr, val mem.Word) {
	q.h = append(q.h, coreEvent{at: now + delay, seq: q.seq, kind: kind, r: ref(d), val: val})
	q.seq++
	i := len(q.h) - 1
	for i > 0 {
		parent := (i - 1) / 2
		if !q.less(i, parent) {
			break
		}
		q.h[i], q.h[parent] = q.h[parent], q.h[i]
		i = parent
	}
}

// run fires every event due at or before now, in order, returning the
// number fired (events of squashed instructions count, but do nothing).
// Events scheduled while running (for the same cycle) also fire.
func (q *coreEvents) run(c *Core, now sim.Cycle) int {
	fired := 0
	for len(q.h) > 0 && q.h[0].at <= now {
		e := q.h[0]
		q.pop()
		if e.r.live() {
			switch e.kind {
			case evComplete:
				c.complete(e.r.d, e.val)
			case evBranch:
				c.resolveBranch(e.r.d)
			}
		}
		fired++
	}
	return fired
}

func (q *coreEvents) empty() bool { return len(q.h) == 0 }

func (q *coreEvents) nextAt() (at sim.Cycle, ok bool) {
	if len(q.h) == 0 {
		return 0, false
	}
	return q.h[0].at, true
}

func (q *coreEvents) less(i, j int) bool {
	if q.h[i].at != q.h[j].at {
		return q.h[i].at < q.h[j].at
	}
	return q.h[i].seq < q.h[j].seq
}

func (q *coreEvents) pop() {
	n := len(q.h) - 1
	q.h[0] = q.h[n]
	q.h[n] = coreEvent{}
	q.h = q.h[:n]
	i := 0
	for {
		left := 2*i + 1
		if left >= n {
			return
		}
		least := left
		if right := left + 1; right < n && q.less(right, left) {
			least = right
		}
		if !q.less(least, i) {
			return
		}
		q.h[i], q.h[least] = q.h[least], q.h[i]
		i = least
	}
}
