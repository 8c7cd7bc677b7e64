package sim

// EventQueue schedules deferred actions inside a component (for example a
// cache responding after its hit latency). Events fire in (cycle,
// insertion) order, keeping runs deterministic.
//
// The heap is hand-rolled rather than built on container/heap: the
// interface-based API boxes every pushed and popped element into an
// `any`, which costs one allocation per scheduled event on the
// simulator's hottest path. The (at, seq) key is unique per event, so
// pop order — and therefore simulated behaviour — is independent of
// heap layout details.
type EventQueue struct {
	h   []event
	seq uint64
}

// Events carry a static callback plus its argument rather than a bare
// closure: a caller with a prepared argument struct schedules with
// exactly one allocation — the argument — where a capturing closure
// would cost a second one.
type event struct {
	at   Cycle
	seq  uint64
	call func(any)
	arg  any
}

// AtCall schedules call(arg) to run at cycle at (which must not be in
// the past when Run is called for the current cycle). call should be a
// static function so the only allocation on the scheduling path is the
// caller's argument value (hot paths pack their whole deferred action
// into one struct).
func (q *EventQueue) AtCall(at Cycle, call func(any), arg any) {
	q.h = append(q.h, event{at: at, seq: q.seq, call: call, arg: arg})
	q.seq++
	q.siftUp(len(q.h) - 1)
}

// AfterCall schedules call(arg) to run delay cycles after now.
func (q *EventQueue) AfterCall(now Cycle, delay Cycle, call func(any), arg any) {
	q.AtCall(now+delay, call, arg)
}

// Run fires every event due at or before now, in order. Events scheduled
// while running (for the same cycle) also fire. It returns the number of
// events fired, so callers can tell an active cycle from an idle one.
func (q *EventQueue) Run(now Cycle) int {
	fired := 0
	for len(q.h) > 0 && q.h[0].at <= now {
		call, arg := q.h[0].call, q.h[0].arg
		q.pop()
		call(arg)
		fired++
	}
	return fired
}

// Empty reports whether no events are pending.
func (q *EventQueue) Empty() bool { return len(q.h) == 0 }

// Len reports the number of pending events.
func (q *EventQueue) Len() int { return len(q.h) }

// NextAt returns the cycle of the earliest pending event. ok is false
// when the queue is empty.
func (q *EventQueue) NextAt() (at Cycle, ok bool) {
	if len(q.h) == 0 {
		return 0, false
	}
	return q.h[0].at, true
}

// CloneInto overwrites dst with a deep copy of the queue, reusing dst's
// heap storage (model-checker state pooling): same (at, seq) keys, same
// firing order. mapArg rewrites each event's scheduled argument — the
// model checker passes a rewriter so deferred actions fire against the
// cloned component instead of the original; nil shares the argument
// values.
func (q *EventQueue) CloneInto(dst *EventQueue, mapArg func(any) any) {
	dst.seq = q.seq
	dst.h = append(dst.h[:0], q.h...)
	if mapArg != nil {
		for i := range dst.h {
			dst.h[i].arg = mapArg(dst.h[i].arg)
		}
	}
}

// ForEachArg calls f on each pending event's scheduled argument, in
// storage order. The model checker's pooled clone uses it to harvest a
// retired queue's argument objects for reuse before overwriting it.
func (q *EventQueue) ForEachArg(f func(any)) {
	for i := range q.h {
		f(q.h[i].arg)
	}
}

// ArgAt returns the i-th pending event's argument in storage order
// (NOT firing order; i indexes 0..Len()-1). The model checker's
// fingerprint path uses it to fold event arguments into a sorted
// multiset, where firing order is irrelevant and Pending's per-call
// allocations are not.
func (q *EventQueue) ArgAt(i int) any { return q.h[i].arg }

// PendingEvent describes one scheduled event without firing it. Arg is
// the scheduled argument value. The model checker uses the
// enumeration to fold a component's private event queue into a canonical
// state fingerprint, so the order is the deterministic (at, seq) firing
// order, not heap layout.
type PendingEvent struct {
	At  Cycle
	Seq uint64
	Arg any
}

// Pending returns the scheduled events in (at, seq) order. The slice is
// freshly allocated; mutating it does not affect the queue.
func (q *EventQueue) Pending() []PendingEvent {
	order := q.sortedIndices()
	out := make([]PendingEvent, len(order))
	for i, j := range order {
		ev := q.h[j]
		out[i] = PendingEvent{At: ev.at, Seq: ev.seq, Arg: ev.arg}
	}
	return out
}

// FireNth removes and fires the n-th pending event in (at, seq) order,
// ignoring simulated time, and returns its argument. This is the model
// checker's transition primitive: exhaustively firing each pending event
// in turn explores every latency assignment the timed simulator could
// produce, without committing to one. It panics if n is out of range.
func (q *EventQueue) FireNth(n int) any {
	if n < 0 || n >= len(q.h) {
		panic("sim: FireNth index out of range")
	}
	// The n-th event is the one exactly n others precede; queues the
	// checker fires are tiny, so counting beats sorting an index slice.
	j := 0
	for ; j < len(q.h); j++ {
		rank := 0
		for k := range q.h {
			if q.less(k, j) {
				rank++
			}
		}
		if rank == n {
			break
		}
	}
	call, arg := q.h[j].call, q.h[j].arg
	q.remove(j)
	call(arg)
	return arg
}

// sortedIndices returns heap-slice indices ordered by (at, seq).
func (q *EventQueue) sortedIndices() []int {
	order := make([]int, len(q.h))
	for i := range order {
		order[i] = i
	}
	// Insertion sort: queues the checker enumerates are tiny (a handful
	// of scheduled sends), and this avoids the sort.Slice closure.
	for i := 1; i < len(order); i++ {
		for j := i; j > 0 && q.less(order[j], order[j-1]); j-- {
			order[j], order[j-1] = order[j-1], order[j]
		}
	}
	return order
}

// remove deletes the event at heap index j, restoring the heap property.
func (q *EventQueue) remove(j int) {
	n := len(q.h) - 1
	q.h[j] = q.h[n]
	q.h[n] = event{}
	q.h = q.h[:n]
	if j < n {
		q.siftDown(j)
		q.siftUp(j)
	}
}

func (q *EventQueue) less(i, j int) bool {
	if q.h[i].at != q.h[j].at {
		return q.h[i].at < q.h[j].at
	}
	return q.h[i].seq < q.h[j].seq
}

func (q *EventQueue) siftUp(i int) {
	for i > 0 {
		parent := (i - 1) / 2
		if !q.less(i, parent) {
			break
		}
		q.h[i], q.h[parent] = q.h[parent], q.h[i]
		i = parent
	}
}

// pop removes the root, keeping the slice's backing array for reuse.
func (q *EventQueue) pop() {
	n := len(q.h) - 1
	q.h[0] = q.h[n]
	q.h[n] = event{} // drop the call/arg references so they can be collected
	q.h = q.h[:n]
	q.siftDown(0)
}

func (q *EventQueue) siftDown(i int) {
	n := len(q.h)
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
