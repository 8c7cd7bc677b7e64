package sim

// Queue schedules deferred actions inside a component (for example a
// cache responding after its hit latency). Each event is a value of the
// component's own action type T, stored in the queue by value: nothing
// is allocated per event, and copying a queue is a slice copy. Events
// fire in (cycle, insertion) order, keeping runs deterministic.
//
// The heap is hand-rolled rather than built on container/heap: the
// interface-based API boxes every pushed and popped element into an
// `any`, which costs one allocation per scheduled event on the
// simulator's hottest path. The (at, seq) key is unique per event, so
// pop order — and therefore simulated behaviour — is independent of
// heap layout details.
type Queue[T any] struct {
	h   []queued[T]
	seq uint64
}

type queued[T any] struct {
	at  Cycle
	seq uint64
	v   T
}

// At schedules v to fire at cycle at (which must not be in the past
// when Run is called for the current cycle).
func (q *Queue[T]) At(at Cycle, v T) {
	q.h = append(q.h, queued[T]{at: at, seq: q.seq, v: v})
	q.seq++
	q.siftUp(len(q.h) - 1)
}

// After schedules v to fire delay cycles after now.
func (q *Queue[T]) After(now Cycle, delay Cycle, v T) {
	q.At(now+delay, v)
}

// Run fires every event due at or before now, in order, by passing it
// to fire. Events scheduled while running (for the same cycle) also
// fire. It returns the number of events fired, so callers can tell an
// active cycle from an idle one.
func (q *Queue[T]) Run(now Cycle, fire func(T)) int {
	fired := 0
	for len(q.h) > 0 && q.h[0].at <= now {
		v := q.h[0].v
		q.remove(0)
		fire(v)
		fired++
	}
	return fired
}

// Empty reports whether no events are pending.
func (q *Queue[T]) Empty() bool { return len(q.h) == 0 }

// Len reports the number of pending events.
func (q *Queue[T]) Len() int { return len(q.h) }

// NextAt returns the cycle of the earliest pending event. ok is false
// when the queue is empty.
func (q *Queue[T]) NextAt() (at Cycle, ok bool) {
	if len(q.h) == 0 {
		return 0, false
	}
	return q.h[0].at, true
}

// CloneInto overwrites dst with a copy of the queue, reusing dst's heap
// storage (model-checker state pooling): same (at, seq) keys, same
// values, same firing order.
func (q *Queue[T]) CloneInto(dst *Queue[T]) {
	dst.seq = q.seq
	dst.h = append(dst.h[:0], q.h...)
}

// Stored returns the i-th pending event in storage order (NOT firing
// order; i indexes 0..Len()-1). The model checker folds a component's
// events into a sorted multiset, where firing order is irrelevant.
func (q *Queue[T]) Stored(i int) *T { return &q.h[i].v }

// Nth returns the n-th pending event in (at, seq) order without firing
// it. It panics if n is out of range.
func (q *Queue[T]) Nth(n int) *T { return &q.h[q.rank(n)].v }

// FireNth removes the n-th pending event in (at, seq) order and passes
// it to fire, ignoring simulated time. This is the model checker's
// transition primitive: exhaustively firing each pending event in turn
// explores every latency assignment the timed simulator could produce,
// without committing to one. It panics if n is out of range.
func (q *Queue[T]) FireNth(n int, fire func(T)) {
	j := q.rank(n)
	v := q.h[j].v
	q.remove(j)
	fire(v)
}

// rank returns the heap index of the event exactly n others precede.
// Queues the checker fires are tiny, so counting beats sorting an
// index slice.
func (q *Queue[T]) rank(n int) int {
	if n < 0 || n >= len(q.h) {
		panic("sim: event index out of range")
	}
	for j := range q.h {
		r := 0
		for k := range q.h {
			if q.less(k, j) {
				r++
			}
		}
		if r == n {
			return j
		}
	}
	panic("sim: event keys are not unique")
}

// remove deletes the event at heap index j, restoring the heap property
// and keeping the slice's backing array for reuse.
func (q *Queue[T]) remove(j int) {
	n := len(q.h) - 1
	q.h[j] = q.h[n]
	var zero queued[T]
	q.h[n] = zero // drop references the value holds so they can be collected
	q.h = q.h[:n]
	if j < n {
		q.siftDown(j)
		q.siftUp(j)
	}
}

func (q *Queue[T]) less(i, j int) bool {
	if q.h[i].at != q.h[j].at {
		return q.h[i].at < q.h[j].at
	}
	return q.h[i].seq < q.h[j].seq
}

func (q *Queue[T]) siftUp(i int) {
	for i > 0 {
		parent := (i - 1) / 2
		if !q.less(i, parent) {
			break
		}
		q.h[i], q.h[parent] = q.h[parent], q.h[i]
		i = parent
	}
}

func (q *Queue[T]) siftDown(i int) {
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
