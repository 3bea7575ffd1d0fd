package sim

import "time"

// Queue is a FIFO channel analogue for simulation processes. A zero
// capacity means unbounded. Get blocks while the queue is empty; Put blocks
// while a bounded queue is full. Wakeups are FIFO among waiters.
type Queue[T any] struct {
	e       *Engine
	items   ring[T]
	cap     int
	getters waitList
	putters waitList
	closed  bool
}

// NewQueue creates a queue on engine e with the given capacity
// (0 = unbounded).
func NewQueue[T any](e *Engine, capacity int) *Queue[T] {
	return &Queue[T]{e: e, cap: capacity}
}

// Len returns the number of buffered items.
func (q *Queue[T]) Len() int { return q.items.n }

// Put appends v, blocking while a bounded queue is full. Putting to a
// closed queue panics.
func (q *Queue[T]) Put(p *Proc, v T) {
	for q.cap > 0 && q.items.n >= q.cap && !q.closed {
		p.park(&q.putters, 0)
	}
	if !q.TryPut(v) {
		panic("sim: Put on closed queue")
	}
}

// TryPut appends v without blocking; it reports whether the item was
// accepted.
func (q *Queue[T]) TryPut(v T) bool {
	if q.closed || (q.cap > 0 && q.items.n >= q.cap) {
		return false
	}
	q.items.push(v)
	q.e.wakeOne(&q.getters)
	return true
}

// Get removes and returns the head item, blocking while the queue is
// empty. ok is false if the queue was closed and drained.
func (q *Queue[T]) Get(p *Proc) (v T, ok bool) { return q.GetTimeout(p, 0) }

// GetTimeout is Get with a deadline: ok is false on timeout or on a closed,
// drained queue. A non-positive timeout blocks indefinitely.
func (q *Queue[T]) GetTimeout(p *Proc, timeout time.Duration) (v T, ok bool) {
	deadline := q.e.now.Add(timeout)
	for q.items.n == 0 {
		if q.closed {
			return v, false
		}
		var remain time.Duration // zero parks without a timer
		if timeout > 0 {
			if remain = deadline.Sub(q.e.now); remain <= 0 {
				return v, false
			}
		}
		if p.park(&q.getters, remain) {
			return v, false
		}
	}
	return q.TryGet()
}

// TryGet removes and returns the head item without blocking.
func (q *Queue[T]) TryGet() (v T, ok bool) {
	if q.items.n == 0 {
		return v, false
	}
	v = q.items.pop()
	q.e.wakeOne(&q.putters)
	return v, true
}

// Peek returns the head item without removing it.
func (q *Queue[T]) Peek() (v T, ok bool) {
	if q.items.n == 0 {
		return v, false
	}
	return q.items.buf[q.items.head], true
}

// Close marks the queue closed: blocked and future getters drain remaining
// items and then receive ok=false. Close is idempotent.
func (q *Queue[T]) Close() {
	if q.closed {
		return
	}
	q.closed = true
	q.e.wakeAll(&q.getters)
	q.e.wakeAll(&q.putters)
}

// ring is a growable ring buffer. Its length stays a power of two and is
// never given back, so a queue that has reached its working depth pushes
// and pops without allocating.
type ring[T any] struct {
	buf  []T
	head int
	n    int
}

func (r *ring[T]) push(v T) {
	if r.n == len(r.buf) {
		grown := make([]T, max(4, 2*len(r.buf)))
		k := copy(grown, r.buf[r.head:])
		copy(grown[k:], r.buf[:r.head])
		r.buf, r.head = grown, 0
	}
	r.buf[(r.head+r.n)&(len(r.buf)-1)] = v
	r.n++
}

// pop removes and returns the oldest element; the ring must not be empty.
func (r *ring[T]) pop() T {
	v := r.buf[r.head]
	var zero T
	r.buf[r.head] = zero
	r.head = (r.head + 1) & (len(r.buf) - 1)
	r.n--
	return v
}
