// Package sim implements a deterministic discrete-event simulation kernel.
//
// The kernel provides a virtual clock, an event queue, and a cooperative
// process model. A process is a function running on a coroutine (iter.Pull):
// the engine loop resumes it with a direct runtime coroutine switch, and the
// process switches straight back whenever it blocks (Sleep, queue operations,
// semaphores, ...). No channel, lock or scheduler pass is involved, and
// exactly one flow of control — the engine loop or one process — runs at any
// instant, so simulation state needs no synchronisation.
//
// Processes and coroutines are pooled. A carrier is bound to a process when
// the process is first resumed and goes back to the engine's idle list when
// the process function returns, and the *Proc itself goes back to the
// engine for the next spawn, so a short-lived worker (one per target read,
// say) costs neither a goroutine nor an allocation. Both are created on
// demand, never ahead of time.
//
// Ordering does not depend on any of that. Every Sleep, spawn, wake-up and
// timer is one event keyed (time, sequence number); the sequence number is
// taken when the event is scheduled, and events fire in key order. Events
// with equal timestamps therefore fire in scheduling (FIFO) order and every
// run is bit-reproducible for a given seed. In steady state the kernel
// allocates nothing: events live by value in a typed heap, waiter lists are
// linked through the parked processes themselves, a timeout timer names its
// wait by a {process, wait generation} pair, and queues buffer their items
// in rings.
//
// All NVMe-oAF subsystems (links, SSDs, transports, reactors) are built as
// processes on this kernel. Real bytes move through real data structures;
// only time is virtual, which gives microsecond-exact, GC-independent
// measurements that Go's wall-clock timers cannot provide at this scale.
//
// Lifecycle note: idle carriers are stopped — their goroutines exit — when
// Run or RunUntil drains the event queue, so a finished engine holds none; a
// RunUntil that stops at its limit keeps them for the next step. A process
// that is still parked when the queue drains (typically a GoDaemon server
// waiting for work that never comes) keeps its carrier, because a later
// After/Go followed by another Run may still wake it. If the engine is
// simply dropped, that coroutine stays parked for the life of the host
// process and pins whatever its stack references — as a goroutine blocked on
// a channel did under the previous kernel. A host process that runs many
// simulations calls Close instead, which unwinds the parked processes so
// that the world becomes collectable.
package sim

import (
	"errors"
	"fmt"
	"hash/fnv"
	"iter"
	"math/rand"
	"slices"
	"sort"
	"time"
)

// Time is an absolute virtual timestamp in nanoseconds since the start of
// the simulation.
type Time int64

// MaxTime is the largest representable virtual timestamp.
const MaxTime = Time(1<<62 - 1)

// Nanoseconds returns the timestamp as an integer nanosecond count.
func (t Time) Nanoseconds() int64 { return int64(t) }

// Seconds returns the timestamp in seconds.
func (t Time) Seconds() float64 { return float64(t) / 1e9 }

// Micros returns the timestamp in microseconds.
func (t Time) Micros() float64 { return float64(t) / 1e3 }

// Add returns the timestamp shifted by d.
func (t Time) Add(d time.Duration) Time { return t + Time(d) }

// Sub returns the duration between two timestamps.
func (t Time) Sub(u Time) time.Duration { return time.Duration(t - u) }

func (t Time) String() string { return fmt.Sprintf("%.3fus", float64(t)/1e3) }

// event is one entry of the engine's priority queue, held by value. With fn
// set it is a callback; otherwise it resumes p. gen is zero for an
// unconditional resume (spawn, Sleep, a wake-up) and, for a timeout timer,
// the wait generation it competes for.
type event struct {
	at  Time
	seq uint64
	fn  func()
	p   *Proc
	gen uint64
}

func (a *event) before(b *event) bool {
	if a.at != b.at {
		return a.at < b.at
	}
	return a.seq < b.seq
}

// eventHeap is a 4-ary min-heap on (at, seq). Keys are unique, so the pop
// order is the sorted order whatever the heap's shape.
type eventHeap []event

func (h *eventHeap) push(ev event) {
	*h = append(*h, ev)
	s := *h
	i := len(s) - 1
	for i > 0 {
		parent := (i - 1) / 4
		if !ev.before(&s[parent]) {
			break
		}
		s[i] = s[parent]
		i = parent
	}
	s[i] = ev
}

func (h *eventHeap) pop() event {
	s := *h
	top, n := s[0], len(s)-1
	last := s[n]
	s[n] = event{} // drop the fn and proc references
	*h = s[:n]
	i := 0
	for first := 1; first < n; first = 4*i + 1 {
		m, end := first, min(first+4, n)
		for c := first + 1; c < end; c++ {
			if s[c].before(&s[m]) {
				m = c
			}
		}
		if !s[m].before(&last) {
			break
		}
		s[i] = s[m]
		i = m
	}
	if n > 0 {
		s[i] = last
	}
	return top
}

// Engine owns the virtual clock and the event queue and drives all
// processes. Exactly one flow of control is active at any instant: either
// the engine loop or a single process.
type Engine struct {
	now    Time
	seq    uint64
	events eventHeap
	// procs[:live] are spawned and not finished, procs[live:] finished and
	// wait to be reused by a spawn; Proc.idx is the index.
	procs []*Proc
	live  int
	cur   *Proc      // the process running now; nil in engine context
	idle  []*carrier // carriers whose process returned, most recent last
	seed  int64
	err   error
	fatal bool
}

// NewEngine returns an engine with its clock at zero. The seed drives every
// random stream derived via Rand, so runs are reproducible per seed.
func NewEngine(seed int64) *Engine {
	return &Engine{seed: seed}
}

// Now returns the current virtual time.
func (e *Engine) Now() Time { return e.now }

// Rand returns a deterministic random stream derived from the engine seed
// and the stream name. Distinct names yield independent streams, so adding
// a new consumer does not perturb existing ones.
func (e *Engine) Rand(stream string) *rand.Rand {
	h := fnv.New64a()
	fmt.Fprint(h, stream)
	return rand.New(rand.NewSource(e.seed ^ int64(h.Sum64())))
}

// schedule inserts an event at absolute time t (clamped to now).
func (e *Engine) schedule(t Time, ev event) {
	ev.at = max(t, e.now)
	ev.seq = e.seq
	e.seq++
	e.events.push(ev)
}

// After schedules fn to run at Now()+d. fn executes in engine context; it
// may spawn processes or schedule further events but must not block.
func (e *Engine) After(d time.Duration, fn func()) {
	e.schedule(e.now.Add(d), event{fn: fn})
}

// At schedules fn at the absolute virtual time t (or now, if t is past).
func (e *Engine) At(t Time, fn func()) {
	e.schedule(t, event{fn: fn})
}

// Go spawns a new process running fn. The process starts at the current
// virtual time, after already-scheduled events at this time fire. There is
// no handle: the *Proc handed to fn is recycled once fn returns, so a
// process that others wait for fires a Signal or WaitGroup of its own.
func (e *Engine) Go(name string, fn func(p *Proc)) {
	e.spawn(name, fn, false)
}

// GoDaemon spawns a background service process (device channel servers,
// connection reactors). Daemons parked with no pending events do not
// trigger the deadlock check: an idle server is not a hung simulation.
func (e *Engine) GoDaemon(name string, fn func(p *Proc)) {
	e.spawn(name, fn, true)
}

// spawn takes a finished Proc for reuse when there is one. Its wait
// generation carries over: a timeout timer left behind by the previous
// incarnation names an older generation and can never resume this one.
func (e *Engine) spawn(name string, fn func(p *Proc), daemon bool) {
	var p *Proc
	if e.live < len(e.procs) {
		p = e.procs[e.live]
	} else {
		p = &Proc{engine: e, gen: 1, idx: e.live}
		e.procs = append(e.procs, p)
	}
	e.live++
	p.name, p.fn, p.daemon, p.timedOut = name, fn, daemon, false
	e.schedule(e.now, event{p: p})
}

// waitList is a FIFO of parked processes, linked through the processes
// themselves: a process waits in at most one list at a time.
type waitList struct{ head, tail *Proc }

func (l *waitList) push(p *Proc) {
	p.prev, p.next = l.tail, nil
	if l.tail != nil {
		l.tail.next = p
	} else {
		l.head = p
	}
	l.tail = p
}

func (l *waitList) remove(p *Proc) {
	if p.prev != nil {
		p.prev.next = p.next
	} else {
		l.head = p.next
	}
	if p.next != nil {
		p.next.prev = p.prev
	} else {
		l.tail = p.prev
	}
	p.prev, p.next = nil, nil
}

// wakeOne ends the wait of the first process in the list, if any, and
// schedules it to resume at the current time. Advancing its generation
// makes a timeout timer still pending for that wait stale.
func (e *Engine) wakeOne(l *waitList) {
	p := l.head
	if p == nil {
		return
	}
	l.remove(p)
	p.gen++
	p.timedOut = false
	e.schedule(e.now, event{p: p})
}

// wakeAll resumes every process in the list, in list order.
func (e *Engine) wakeAll(l *waitList) {
	for l.head != nil {
		e.wakeOne(l)
	}
}

// Run drives the simulation until no events remain or a process panics. It
// returns an error for panics and for deadlock (processes parked forever).
func (e *Engine) Run() error { return e.RunUntil(MaxTime) }

// RunUntil drives the simulation until the event queue is exhausted or the
// next event lies beyond the limit; in the latter case the clock is set to
// the limit, the event stays queued for the next call, and no deadlock
// check is performed.
func (e *Engine) RunUntil(limit Time) error {
	for len(e.events) > 0 {
		if e.events[0].at > limit {
			e.now = limit
			return e.err
		}
		ev := e.events.pop()
		e.now = ev.at
		if ev.fn != nil {
			ev.fn()
			continue
		}
		p := ev.p
		if ev.gen != 0 {
			if ev.gen != p.gen {
				continue // the wait this timer guarded already ended
			}
			p.gen++
			p.timedOut = true
		}
		e.resume(p)
		if e.fatal {
			return e.err
		}
	}
	e.stopIdle() // the simulation has run dry
	// With no event left, every unfinished process is parked for good.
	var stuck []string
	for _, p := range e.procs[:e.live] {
		if !p.daemon {
			stuck = append(stuck, p.name)
		}
	}
	if len(stuck) > 0 {
		sort.Strings(stuck)
		return fmt.Errorf("sim: deadlock: %d process(es) parked with no pending events: %v", len(stuck), stuck)
	}
	return e.err
}

// carrier is a reusable coroutine. It runs one process function at a time;
// between processes it sits in Engine.idle, parked in its own yield.
type carrier struct {
	e     *Engine
	p     *Proc
	next  func() (struct{}, bool)
	stop  func()
	yield func(struct{}) bool
}

// resume switches to p, binding it to a carrier on its first run, and
// returns when p blocks or finishes.
func (e *Engine) resume(p *Proc) {
	c := p.c
	if c == nil {
		if n := len(e.idle); n > 0 {
			c = e.idle[n-1]
			e.idle[n-1] = nil
			e.idle = e.idle[:n-1]
		} else {
			c = &carrier{e: e}
			c.next, c.stop = iter.Pull(c.loop)
		}
		c.p, p.c = p, c
	}
	e.cur = p
	c.next()
	e.cur = nil
}

// loop is the body of a carrier's coroutine: run the bound process, go
// idle, and wait to be bound again. yield returns false once the carrier is
// stopped: idle by stopIdle, or blocked in a process (see Proc.block) by
// Close.
func (c *carrier) loop(yield func(struct{}) bool) {
	c.yield = yield
	for {
		c.run(c.p)
		c.p = nil
		c.e.idle = append(c.e.idle, c)
		if !yield(struct{}{}) {
			return
		}
	}
}

// run executes p to completion. A panic becomes the engine's error; a
// runtime.Goexit (t.FailNow inside a process) unwinds through loop, so the
// carrier is never reused, and iter.Pull re-raises it in the Run caller.
func (c *carrier) run(p *Proc) {
	e := c.e
	defer func() {
		if r := recover(); r != nil && r != errClosed {
			if e.err == nil {
				e.err = fmt.Errorf("sim: process %q panicked: %v", p.name, r)
			}
			e.fatal = true
		}
		p.c, p.fn = nil, nil
		e.live--
		last := e.procs[e.live]
		e.procs[p.idx], e.procs[e.live] = last, p
		last.idx, p.idx = p.idx, e.live
	}()
	p.fn(p)
}

// stopIdle lets the goroutines of all idle carriers exit.
func (e *Engine) stopIdle() {
	for i, c := range e.idle {
		c.stop()
		e.idle[i] = nil
	}
	e.idle = e.idle[:0]
}

// errClosed unwinds a process that was still blocked when its engine closed.
var errClosed = errors.New("sim: engine closed")

// Close tears a finished simulation down: every process that is still
// blocked is unwound (its deferred calls run, at the final virtual time) and
// every coroutine exits, so nothing but the caller's own references keeps
// the engine and the world built on it alive. It is optional — an engine may
// simply be dropped — and matters to a host process that runs many
// simulations. Call it from outside any process, after the last Run; the
// engine must not be used afterwards.
func (e *Engine) Close() {
	// Unwinding a process may finish or spawn others: walk a snapshot.
	for _, p := range slices.Clone(e.procs[:e.live]) {
		if p.c != nil {
			e.cur = p
			p.c.stop() // block panics with errClosed; carrier.run recovers it
			e.cur = nil
		}
	}
	e.events, e.procs, e.live = nil, nil, 0
	e.stopIdle()
}

// Live reports the number of processes that have been spawned and not yet
// finished.
func (e *Engine) Live() int { return e.live }

// Err returns the first process panic recorded, if any.
func (e *Engine) Err() error { return e.err }
