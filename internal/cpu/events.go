package cpu

import (
	"fmt"
	"math/bits"

	"wbsim/internal/mem"
	"wbsim/internal/sim"
)

// The core's deferred actions are few in kind — an instruction completes
// with a result, or a branch resolves — and all but a few fall due within
// a short window, so in front of the simulator's one event heap,
// sim.Queue, the core keeps a timing wheel of small structs: scheduling
// and firing a short-delay event touches no heap, and System.Step stays
// allocation-free in steady state.
//
// Bucket t%wheelSize of the wheel lists the events due at cycle t, in
// insertion order. Two invariants make one bucket hold one cycle only:
// every delay is at least 1, and the core ticks (and runs the queue) at
// every cycle an event falls due, because the system's idle skip credits
// no tick for which WakeDue holds. after asserts the first and due the
// second (a due cycle left unrun is found at the next run). The rare
// delay of wheelSize or more goes to an overflow sim.Queue; an overflow
// event due at t was scheduled at t-wheelSize or earlier, before every
// bucket event due at t, so run fires the overflow's due events first.
// Firing order is therefore (cycle, insertion seq), as in sim.Queue. The
// earliest due cycle is cached, so nextAt — read by WakeDue every idle
// cycle — is O(1).
//
// Bucket events live in one pool whose free slots are reused last-in
// first-out, and the buckets chain them by index: the few events in
// flight stay in a handful of cache lines, where a slice per bucket would
// spread them over the whole wheel.
//
// An event names its instruction by instrRef: an instruction squashed
// before its event fires may have handed its window slot to a younger
// one, and the event must then do nothing.

type coreEventKind uint8

const (
	evComplete coreEventKind = iota // complete(r.d, val)
	evBranch                        // resolveBranch(r.d)
)

type coreEvent struct {
	r    instrRef
	val  mem.Word
	next int32 // the next event in the same bucket, or the next free slot
	kind coreEventKind
}

// wheelSize is the number of wheel buckets; it must be 64, one bit of
// coreEvents.occ per bucket.
const wheelSize = 64

type coreEvents struct {
	pool       []coreEvent
	free       int32                // first free pool slot, -1 if none
	head, tail [wheelSize]int32     // each bucket's first and last event
	occ        uint64               // bit b is set while bucket b is non-empty
	overflow   sim.Queue[coreEvent] // events wheelSize or more cycles ahead
	n          int                  // pending events
	next       sim.Cycle            // earliest due cycle while n > 0
	seq        uint64               // events ever scheduled
}

// init allocates a pool of size event slots; a pool that needs more
// grows to its peak.
func (q *coreEvents) init(size int) {
	q.pool = make([]coreEvent, size)
	for i := range q.pool {
		q.pool[i].next = int32(i + 1)
	}
	q.pool[size-1].next = -1
	q.free = 0
}

func (q *coreEvents) after(now, delay sim.Cycle, kind coreEventKind, d *DynInstr, val mem.Word) {
	if delay < 1 {
		panic(fmt.Sprintf("cpu: core event scheduled %d cycles ahead at cycle %d (the queue needs at least 1)", delay, now))
	}
	at := now + delay
	e := coreEvent{r: ref(d), val: val, next: -1, kind: kind}
	if delay < wheelSize {
		i := q.free
		if i >= 0 {
			q.free = q.pool[i].next
		} else {
			i = int32(len(q.pool))
			q.pool = append(q.pool, coreEvent{})
		}
		q.pool[i] = e
		b := at % wheelSize
		if q.occ&(1<<b) != 0 {
			q.pool[q.tail[b]].next = i
		} else {
			q.head[b] = i
			q.occ |= 1 << b
		}
		q.tail[b] = i
	} else {
		q.overflow.At(at, e)
	}
	q.seq++
	if q.n == 0 || at < q.next {
		q.next = at
	}
	q.n++
}

// run fires every event due at now in (cycle, seq) order, passing each
// to fire, and returns the number fired. Handlers schedule at least 1
// and less than wheelSize cycles ahead into other buckets, or into the
// overflow at now+wheelSize or later, so neither source of now's events
// grows while it drains.
func (q *coreEvents) run(now sim.Cycle, fire func(coreEvent)) int {
	if !q.due(now) {
		return 0
	}
	fired := q.overflow.Run(now, func(e coreEvent) {
		q.n--
		fire(e)
	})
	b := now % wheelSize
	for q.occ&(1<<b) != 0 {
		i := q.head[b]
		e := q.pool[i]
		if q.head[b] = e.next; e.next < 0 {
			q.occ &^= 1 << b
		}
		q.pool[i].next, q.free = q.free, i
		q.n--
		fire(e)
		fired++
	}
	q.next = q.earliest(now)
	return fired
}

// due reports whether events fall due at now. An event due before now
// means a due cycle was skipped, and panics.
func (q *coreEvents) due(now sim.Cycle) bool {
	if q.n == 0 || q.next > now {
		return false
	}
	if q.next < now {
		panic(fmt.Sprintf("cpu: core event due at cycle %d was not run before cycle %d", q.next, now))
	}
	return true
}

// earliest returns the earliest due cycle after now has run: the wheel
// then holds cycles now+1 .. now+wheelSize-1, so the first occupied
// bucket after now's names it, unless the overflow's top is sooner.
func (q *coreEvents) earliest(now sim.Cycle) sim.Cycle {
	var next sim.Cycle
	if q.occ != 0 {
		from := (now + 1) % wheelSize
		next = now + 1 + sim.Cycle(bits.TrailingZeros64(bits.RotateLeft64(q.occ, -int(from))))
	}
	if at, ok := q.overflow.NextAt(); ok && (q.occ == 0 || at < next) {
		next = at
	}
	return next
}

func (q *coreEvents) empty() bool { return q.n == 0 }

func (q *coreEvents) nextAt() (at sim.Cycle, ok bool) {
	return q.next, q.n > 0
}

// fire performs one due event; the event of a squashed instruction does
// nothing.
func (c *Core) fire(e coreEvent) {
	if !e.r.live() {
		return
	}
	switch e.kind {
	case evComplete:
		c.complete(e.r.d, e.val)
	case evBranch:
		c.resolveBranch(e.r.d)
	}
}
