package sim

import (
	"fmt"
	"time"
)

// Proc is a simulation process: a function that runs cooperatively under
// the engine on a pooled coroutine. Blocking methods (Sleep, and the
// queue/semaphore operations that take a *Proc) switch back to the engine
// loop until the wakeup condition fires.
//
// A Proc must only be used from its own process (the function passed to
// Engine.Go), and not after that function returns: the engine then hands
// the same *Proc to the next process it spawns. Blocking through a Proc
// that is not the running process panics, so a stale handle fails loudly
// instead of parking whichever process owns the Proc now.
type Proc struct {
	engine   *Engine
	name     string
	fn       func(p *Proc)
	c        *carrier // nil before the first run and after the last
	gen      uint64   // wait generation: each park that ends advances it; starts at 1, never resets
	idx      int      // index in Engine.procs
	timedOut bool     // whether a timer ended the last park
	daemon   bool
	prev     *Proc // neighbours in the waitList p is parked in
	next     *Proc
}

// Engine returns the engine this process runs on.
func (p *Proc) Engine() *Engine { return p.engine }

// Now returns the current virtual time.
func (p *Proc) Now() Time { return p.engine.now }

// own panics unless p is the process the engine is running now.
func (p *Proc) own() {
	if p.engine.cur != p {
		panic(fmt.Sprintf("sim: process %q blocked from outside its own function", p.name))
	}
}

// block switches to the engine loop and returns when it resumes p. The
// yield fails only when Engine.Close stops the carrier of a blocked process.
func (p *Proc) block() {
	if !p.c.yield(struct{}{}) {
		panic(errClosed)
	}
}

// Sleep suspends the process for the given virtual duration. Non-positive
// durations yield the processor: the process re-runs at the same timestamp
// after already-pending events.
func (p *Proc) Sleep(d time.Duration) {
	p.own()
	if d < 0 {
		d = 0
	}
	p.engine.schedule(p.engine.now.Add(d), event{p: p})
	p.block()
}

// park queues the process on list and suspends it until another party ends
// the wait via Engine.wakeOne/wakeAll. If timeout is positive a timer
// competes for the wait; park reports true if the timer won (the wait timed
// out). A non-positive timeout parks indefinitely.
func (p *Proc) park(list *waitList, timeout time.Duration) (timedOut bool) {
	p.own()
	e := p.engine
	list.push(p)
	if timeout > 0 {
		e.schedule(e.now.Add(timeout), event{p: p, gen: p.gen})
	}
	p.block()
	if p.timedOut {
		list.remove(p) // a waker would have unlinked p; the timer does not
	}
	return p.timedOut
}
