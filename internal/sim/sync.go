package sim

import "time"

// Semaphore is a counted semaphore with FIFO wakeup among blocked
// acquirers.
type Semaphore struct {
	e       *Engine
	permits int
	waiters waitList
}

// NewSemaphore creates a semaphore holding the given number of permits.
func NewSemaphore(e *Engine, permits int) *Semaphore {
	return &Semaphore{e: e, permits: permits}
}

// Acquire takes one permit, blocking until one is available.
func (s *Semaphore) Acquire(p *Proc) {
	for s.permits <= 0 {
		p.park(&s.waiters, 0)
	}
	s.permits--
}

// TryAcquire takes one permit without blocking; it reports success.
func (s *Semaphore) TryAcquire() bool {
	if s.permits <= 0 {
		return false
	}
	s.permits--
	return true
}

// Release returns one permit and wakes a blocked acquirer, if any.
func (s *Semaphore) Release() {
	s.permits++
	s.e.wakeOne(&s.waiters)
}

// Available returns the number of free permits.
func (s *Semaphore) Available() int { return s.permits }

// Signal is a broadcast condition: processes Wait until Fire is called,
// after which the signal stays fired (level-triggered) until Reset.
type Signal struct {
	e       *Engine
	fired   bool
	waiters waitList
}

// NewSignal creates an unfired signal.
func NewSignal(e *Engine) *Signal { return &Signal{e: e} }

// Fired reports whether the signal has fired.
func (s *Signal) Fired() bool { return s.fired }

// Wait blocks until the signal fires. Returns immediately if already
// fired. Each Wait parks at most once: a wakeup always corresponds to a
// Fire call, even if the signal was Reset again before the waiter resumed
// (edge-triggered wakeup, level-triggered fast path).
func (s *Signal) Wait(p *Proc) { s.WaitTimeout(p, 0) }

// WaitTimeout is Wait with a deadline; it reports whether the signal fired
// (false = timed out). A non-positive timeout blocks indefinitely.
func (s *Signal) WaitTimeout(p *Proc, timeout time.Duration) bool {
	return s.fired || !p.park(&s.waiters, timeout)
}

// Fire fires the signal, waking all waiters. Idempotent.
func (s *Signal) Fire() {
	if s.fired {
		return
	}
	s.fired = true
	s.e.wakeAll(&s.waiters)
}

// Reset returns a fired signal to the unfired state.
func (s *Signal) Reset() { s.fired = false }

// Future carries a single value set exactly once; processes can block until
// it resolves. It is the simulation analogue of a one-shot channel.
type Future[T any] struct {
	sig  Signal
	val  T
	cb   func(T)   // the first registered callback: most futures have one
	more []func(T) // the rest, in registration order
}

// NewFuture creates an unresolved future.
func NewFuture[T any](e *Engine) *Future[T] {
	return &Future[T]{sig: Signal{e: e}}
}

// Resolve sets the value, wakes all waiters, and runs registered
// callbacks. Resolving twice panics.
func (f *Future[T]) Resolve(v T) {
	if f.sig.Fired() {
		panic("sim: Future resolved twice")
	}
	f.val = v
	f.sig.Fire()
	// Detach the callbacks before running them: one may re-arm f for its
	// owner's next operation (Arm) and register anew.
	cb, more := f.cb, f.more
	f.cb, f.more = nil, nil
	if cb != nil {
		cb(v)
	}
	for _, fn := range more {
		fn(v)
	}
	if f.more == nil {
		// Keep the capacity: a re-armed future registers callbacks into
		// it, keeping recycled futures allocation-free.
		clear(more)
		f.more = more[:0]
	}
}

// Arm readies f to carry a new value on engine e, dropping the old value.
// It is how an object that outlives one operation — a ring slot, a device
// request — owns its completion future instead of allocating one per
// operation. f must be the zero Future or a resolved one: arming a future
// that may still have waiters panics. A waiter reads the value when it
// resumes, so only the waiter itself re-arms a future it waited on.
func (f *Future[T]) Arm(e *Engine) {
	if f.sig.e != nil && !f.sig.fired {
		panic("sim: Arm on unresolved Future")
	}
	f.sig.e, f.sig.fired = e, false
	var zero T
	f.val = zero
}

// OnResolve registers fn to run when the future resolves (immediately if
// already resolved). fn runs in the resolver's context and must not
// block.
func (f *Future[T]) OnResolve(fn func(T)) {
	if f.sig.Fired() {
		fn(f.val)
		return
	}
	if f.cb == nil {
		f.cb = fn
		return
	}
	f.more = append(f.more, fn)
}

// Resolved reports whether the future carries a value.
func (f *Future[T]) Resolved() bool { return f.sig.Fired() }

// Wait blocks until the future resolves and returns its value.
func (f *Future[T]) Wait(p *Proc) T {
	f.sig.Wait(p)
	return f.val
}

// WaitTimeout is Wait with a deadline: ok is false when the deadline
// passed before the future resolved (the future stays valid and may
// still resolve later). A non-positive timeout blocks indefinitely.
func (f *Future[T]) WaitTimeout(p *Proc, timeout time.Duration) (v T, ok bool) {
	if !f.sig.WaitTimeout(p, timeout) {
		var zero T
		return zero, false
	}
	return f.val, true
}

// Value returns the value without blocking; ok is false if unresolved.
func (f *Future[T]) Value() (v T, ok bool) {
	if !f.sig.Fired() {
		return v, false
	}
	return f.val, true
}

// WaitGroup waits for a collection of processes or operations to finish.
type WaitGroup struct {
	count int
	sig   Signal
}

// NewWaitGroup creates a wait group with a zero count.
func NewWaitGroup(e *Engine) *WaitGroup {
	return &WaitGroup{sig: Signal{e: e}}
}

// Add increments the pending-operation count by n (n may be negative, as
// with sync.WaitGroup; Done is Add(-1)).
func (w *WaitGroup) Add(n int) {
	w.count += n
	if w.count < 0 {
		panic("sim: negative WaitGroup counter")
	}
	if w.count == 0 {
		w.sig.Fire()
		w.sig.Reset()
	}
}

// Done decrements the pending-operation count.
func (w *WaitGroup) Done() { w.Add(-1) }

// Wait blocks until the count reaches zero. A zero count returns
// immediately.
func (w *WaitGroup) Wait(p *Proc) {
	for w.count > 0 {
		w.sig.Wait(p)
	}
}
