package sim

import (
	"math/rand"
	"slices"
	"strings"
	"testing"
	"time"
)

func TestRunUntilKeepsEventBeyondLimit(t *testing.T) {
	e := NewEngine(1)
	limit := Time(10 * time.Microsecond)
	fired := 0
	e.At(limit+1, func() { fired++ })
	if err := e.RunUntil(limit); err != nil {
		t.Fatal(err)
	}
	if fired != 0 || e.Now() != limit {
		t.Fatalf("after RunUntil(limit): fired=%d now=%v", fired, e.Now())
	}
	if err := e.RunUntil(limit + 1); err != nil {
		t.Fatal(err)
	}
	if fired != 1 || e.Now() != limit+1 {
		t.Fatalf("the event at limit+1 was lost: fired=%d now=%v", fired, e.Now())
	}
}

// allocsInProc measures op inside a process, so the count covers both sides
// of every switch: the process's and the engine loop's. warm runs first and
// lets lists and pools reach their working size.
func allocsInProc(t *testing.T, e *Engine, op func(p *Proc)) float64 {
	t.Helper()
	allocs := -1.0
	e.Go("measured", func(p *Proc) {
		for i := 0; i < 64; i++ {
			op(p)
		}
		allocs = testing.AllocsPerRun(500, func() { op(p) })
	})
	if err := e.Run(); err != nil {
		t.Fatal(err)
	}
	return allocs
}

func TestKernelSteadyStateAllocs(t *testing.T) {
	check := func(name string, got, max float64) {
		t.Helper()
		t.Logf("%-22s %.0f allocs/op (budget %.0f)", name, got, max)
		if got > max {
			t.Errorf("%s: %.0f allocs/op, budget %.0f", name, got, max)
		}
	}

	e := NewEngine(1)
	check("Sleep", allocsInProc(t, e, func(p *Proc) { p.Sleep(time.Nanosecond) }), 0)

	e = NewEngine(1)
	hoisted := func() {}
	check("After+Sleep", allocsInProc(t, e, func(p *Proc) {
		e.After(time.Nanosecond, hoisted)
		p.Sleep(2 * time.Nanosecond)
	}), 0)

	e = NewEngine(1)
	ping, pong := NewQueue[int](e, 0), NewQueue[int](e, 1)
	e.GoDaemon("echo", func(p *Proc) {
		for {
			v, _ := ping.Get(p)
			pong.Put(p, v)
		}
	})
	check("Queue put/get", allocsInProc(t, e, func(p *Proc) {
		ping.Put(p, 1)
		pong.Get(p)
	}), 0)

	e = NewEngine(1)
	q := NewQueue[int](e, 0)
	check("Queue GetTimeout miss", allocsInProc(t, e, func(p *Proc) { q.GetTimeout(p, time.Nanosecond) }), 0)
	if q.getters.head != nil || q.getters.tail != nil {
		t.Error("timed-out gets left a waiter linked in the list")
	}

	e = NewEngine(1)
	req, ack := NewSemaphore(e, 0), NewSemaphore(e, 0)
	e.GoDaemon("echo", func(p *Proc) {
		for {
			req.Acquire(p)
			ack.Release()
		}
	})
	check("Semaphore park/wake", allocsInProc(t, e, func(p *Proc) {
		req.Release()
		ack.Acquire(p)
	}), 0)

	e = NewEngine(1)
	start, done := NewSignal(e), NewSignal(e)
	e.GoDaemon("echo", func(p *Proc) {
		for {
			start.Wait(p)
			start.Reset()
			done.Fire()
		}
	})
	check("Signal park/wake", allocsInProc(t, e, func(p *Proc) {
		done.Reset()
		start.Fire()
		done.WaitTimeout(p, time.Second)
	}), 0)

	// A spawn costs nothing: the Proc and its coroutine both come back
	// to the engine when a process returns.
	e = NewEngine(1)
	child := func(*Proc) {}
	check("Go of a returning proc", allocsInProc(t, e, func(p *Proc) {
		e.Go("child", child)
		p.Sleep(time.Nanosecond)
	}), 0)

	e = NewEngine(1)
	ended := NewSignal(e)
	signalling := func(*Proc) { ended.Fire() }
	check("Go", allocsInProc(t, e, func(p *Proc) {
		ended.Reset()
		e.Go("child", signalling)
		ended.Wait(p)
	}), 0)
}

// firing is one observed event: when it fired and the order in which the
// test issued whatever scheduled it. sub orders waiters of one broadcast;
// kind only labels a failure report.
type firing struct {
	at          Time
	ticket, sub int
	kind        string
}

func compareFirings(a, b firing) int {
	switch {
	case a.at != b.at:
		return int(a.at - b.at)
	case a.ticket != b.ticket:
		return a.ticket - b.ticket
	}
	return a.sub - b.sub
}

// TestFireOrderMatchesReferenceSort drives seeded random mixes of After,
// Sleep, GetTimeout, WaitTimeout, Go and waiting for a child on a coarse
// time grid (so
// equal timestamps are the rule) and checks that everything fired in
// (time, issue order): the kernel's (at, seq) contract seen from outside.
// Each scheduling call takes a ticket from one counter just before it is
// made; a woken waiter reports the ticket of the call that woke it.
func TestFireOrderMatchesReferenceSort(t *testing.T) {
	var total struct{ fired, timeouts, wakes, joins, spawns int }
	for seed := int64(1); seed <= 60; seed++ {
		e := NewEngine(seed)
		rng := rand.New(rand.NewSource(seed))
		const unit = time.Microsecond
		dur := func() time.Duration { return time.Duration(rng.Intn(4)) * unit }

		var log []firing
		tickets := 0
		next := func() int { tickets++; return tickets }
		fire := func(ticket, sub int, kind string) {
			log = append(log, firing{e.Now(), ticket, sub, kind})
			total.fired++
		}

		// One inbox per process (a single consumer, so a woken getter
		// always finds its item) and one-shot signals carrying the ticket
		// of their Fire.
		const roots, signals = 6, 8
		var inboxes []*Queue[int]
		newInbox := func() *Queue[int] {
			inboxes = append(inboxes, NewQueue[int](e, 0))
			return inboxes[len(inboxes)-1]
		}
		var sigs [signals]*Signal
		var sigTicket [signals]int
		for i := range sigs {
			sigs[i] = NewSignal(e)
		}
		// A child reports its end through a signal fired after it took
		// its last ticket.
		type child struct {
			done     *Signal
			finished int
		}

		// body returns the ticket taken as it ends.
		var body func(p *Proc, inbox *Queue[int], depth int) int
		body = func(p *Proc, inbox *Queue[int], depth int) int {
			var children []*child
			for step := 0; step < 8; step++ {
				switch rng.Intn(7) {
				case 0:
					tk := next()
					e.After(dur(), func() { fire(tk, 0, "after") })
				case 1:
					tk := next()
					p.Sleep(dur())
					fire(tk, 0, "sleep")
				case 2:
					inboxes[rng.Intn(len(inboxes))].TryPut(next())
				case 3:
					if inbox.Len() > 0 {
						inbox.TryGet()
						break
					}
					tk := next()
					if v, ok := inbox.GetTimeout(p, dur()+unit); ok {
						fire(v, 0, "got")
						total.wakes++
					} else {
						fire(tk, 0, "gettimeout")
						total.timeouts++
					}
				case 4:
					if i := rng.Intn(signals); !sigs[i].Fired() {
						sigTicket[i] = next()
						sigs[i].Fire()
					}
				case 5:
					i := rng.Intn(signals)
					if sigs[i].Fired() {
						break
					}
					tk := next()
					if sigs[i].WaitTimeout(p, dur()+unit) {
						fire(sigTicket[i], tk, "sig")
						total.wakes++
					} else {
						fire(tk, 0, "sigtimeout")
						total.timeouts++
					}
				case 6:
					if depth < 2 {
						tk, childInbox := next(), newInbox()
						ch := &child{done: NewSignal(e)}
						children = append(children, ch)
						e.Go("child", func(c *Proc) {
							fire(tk, 0, "spawn")
							total.spawns++
							ch.finished = body(c, childInbox, depth+1)
							ch.done.Fire()
						})
					}
				}
			}
			for _, ch := range children {
				if !ch.done.Fired() {
					ch.done.Wait(p)
					fire(ch.finished, 0, "join")
					total.joins++
				}
			}
			return next()
		}
		for i := 0; i < roots; i++ {
			tk, inbox := next(), newInbox()
			e.Go("root", func(p *Proc) {
				fire(tk, 0, "root")
				body(p, inbox, 0)
			})
		}
		if err := e.Run(); err != nil {
			t.Fatalf("seed %d: %v", seed, err)
		}
		if !slices.IsSortedFunc(log, compareFirings) {
			want := slices.Clone(log)
			slices.SortStableFunc(want, compareFirings)
			for i := range log {
				if log[i] != want[i] {
					t.Fatalf("seed %d: firing %d was %+v, reference order has %+v\n%+v", seed, i, log[i], want[i], log[max(0, i-5):i+8])
				}
			}
		}
	}
	t.Logf("%+v", total)
	if total.timeouts == 0 || total.wakes == 0 || total.joins == 0 || total.spawns == 0 {
		t.Fatalf("a path was never exercised: %+v", total)
	}
}

func TestTimerLosesToSameInstantWake(t *testing.T) {
	e := NewEngine(1)
	q := NewQueue[int](e, 0)
	deadline := 10 * time.Microsecond
	// The producer's wake-up for the deadline instant is scheduled before
	// the consumer arms its timer, so at that instant the Put runs first.
	e.Go("prod", func(p *Proc) {
		p.Sleep(deadline)
		q.Put(p, 7)
	})
	e.Go("cons", func(p *Proc) {
		v, ok := q.GetTimeout(p, deadline)
		if !ok || v != 7 || p.Now() != Time(deadline) {
			t.Errorf("got (%d,%v) at %v, want (7,true) at the deadline", v, ok, p.Now())
		}
		// The dead timer must not end a later wait early.
		if _, ok := q.GetTimeout(p, deadline); ok || p.Now() != Time(2*deadline) {
			t.Errorf("second wait: ok=%v at %v, want a timeout at %v", ok, p.Now(), Time(2*deadline))
		}
	})
	if err := e.Run(); err != nil {
		t.Fatal(err)
	}
}

func TestCarrierReuse(t *testing.T) {
	e := NewEngine(1)
	e.Go("driver", func(p *Proc) {
		done := NewSignal(e)
		worker := func(c *Proc) {
			c.Sleep(time.Nanosecond)
			done.Fire()
		}
		spawnAndWait := func() {
			done.Reset()
			e.Go("worker", worker)
			done.Wait(p) // the worker returned right after its Fire
		}
		spawnAndWait()
		if len(e.idle) != 1 {
			t.Errorf("%d idle carriers after the first worker returned, want 1", len(e.idle))
		}
		first := e.procs[e.live]
		// A hundred short-lived workers, one after another, on that carrier
		// and that Proc.
		for i := 0; i < 100; i++ {
			spawnAndWait()
		}
		if len(e.idle) != 1 || len(e.procs) != 2 || e.procs[e.live] != first {
			t.Errorf("sequential workers: %d idle carriers, %d Procs, want 1 and 2 with the first reused",
				len(e.idle), len(e.procs))
		}
		// The carrier now runs a long-lived process.
		e.Go("tenant", func(c *Proc) { c.Sleep(time.Second) })
		p.Sleep(time.Microsecond)
		if len(e.idle) != 0 || e.Live() != 2 {
			t.Errorf("tenant did not take the idle carrier: idle=%d live=%d", len(e.idle), e.Live())
		}
	})
	if err := e.Run(); err != nil {
		t.Fatal(err)
	}
	if len(e.idle) != 0 {
		t.Errorf("Run returned with %d idle carriers still alive", len(e.idle))
	}
}

// A process parks with a timeout, is woken early and returns; its Proc is
// reused by the next spawn, and the old timer then fires. The timer names a
// wait of the previous incarnation, so it must not resume the new one.
func TestRecycledProcIgnoresStaleTimer(t *testing.T) {
	e := NewEngine(1)
	wake := NewSignal(e)
	var old, reused *Proc
	e.Go("early", func(p *Proc) {
		old = p
		if !wake.WaitTimeout(p, 10*time.Microsecond) {
			t.Error("the first incarnation timed out, want an early wake")
		}
	})
	e.Go("waker", func(p *Proc) {
		p.Sleep(time.Microsecond)
		wake.Fire()
		p.Sleep(time.Microsecond) // the early process has returned
		never := NewSignal(e)
		e.Go("reuser", func(p *Proc) {
			reused = p
			// Parked past the stale timer's instant (10us): only this
			// wait's own timer may end it.
			if never.WaitTimeout(p, 20*time.Microsecond) {
				t.Error("the reused Proc's wait reported a fire")
			}
			if p.Now() != Time(22*time.Microsecond) {
				t.Errorf("the reused Proc resumed at %v, want its own deadline 22us", p.Now())
			}
		})
	})
	if err := e.Run(); err != nil {
		t.Fatal(err)
	}
	if reused != old {
		t.Fatal("the second spawn did not reuse the finished Proc")
	}
}

// A handle kept past its process function names a recycled Proc: blocking
// through it from another process panics instead of parking that process.
func TestStaleProcPanics(t *testing.T) {
	e := NewEngine(1)
	done := NewSignal(e)
	var stale *Proc
	e.Go("parent", func(p *Proc) {
		e.Go("child", func(p *Proc) {
			stale = p
			done.Fire()
		})
		done.Wait(p)
		stale.Sleep(time.Microsecond)
		t.Error("Sleep through a finished process's Proc returned")
	})
	err := e.Run()
	if err == nil || !strings.Contains(err.Error(), `process "parent" panicked`) || !strings.Contains(err.Error(), "outside its own function") {
		t.Fatalf("Run = %v, want the parent to panic on the stale Proc", err)
	}
}

func TestDeadlockReportSortedNonDaemon(t *testing.T) {
	e := NewEngine(1)
	never := NewSignal(e)
	for _, name := range []string{"zeta", "alpha", "mid"} {
		e.Go(name, func(p *Proc) { never.Wait(p) })
	}
	e.GoDaemon("server", func(p *Proc) { never.Wait(p) })
	e.Go("timed", func(p *Proc) { never.WaitTimeout(p, time.Millisecond) })
	err := e.Run()
	if err == nil {
		t.Fatal("expected a deadlock error")
	}
	if want := "3 process(es) parked with no pending events: [alpha mid zeta]"; !strings.Contains(err.Error(), want) {
		t.Fatalf("err = %v, want it to contain %q", err, want)
	}
}

// A waiter that times out leaves the middle of a list; the others keep
// their FIFO order.
func TestTimedOutWaiterLeavesList(t *testing.T) {
	e := NewEngine(1)
	sem := NewSemaphore(e, 0)
	var order []string
	acquire := func(name string) {
		e.Go(name, func(p *Proc) {
			sem.Acquire(p)
			order = append(order, name)
		})
	}
	acquire("a")
	sig := NewSignal(e)
	e.Go("b", func(p *Proc) {
		p.park(&sem.waiters, time.Microsecond)
		order = append(order, "b timed out")
		sig.Fire()
	})
	acquire("c")
	e.Go("release", func(p *Proc) {
		sig.Wait(p)
		sem.Release()
		sem.Release()
	})
	if err := e.Run(); err != nil {
		t.Fatal(err)
	}
	if want := []string{"b timed out", "a", "c"}; !slices.Equal(order, want) {
		t.Fatalf("order = %v, want %v", order, want)
	}
}

// Stepping an engine with RunUntil keeps the carrier pool between steps;
// only a run that drains the event queue stops the idle carriers.
func TestSteppedRunUntilKeepsCarriers(t *testing.T) {
	e := NewEngine(1)
	e.Go("spawner", func(p *Proc) {
		done := NewSignal(e)
		for i := 0; i < 10; i++ {
			done.Reset()
			e.Go("worker", func(c *Proc) {
				c.Sleep(time.Microsecond)
				done.Fire()
			})
			done.Wait(p)
			p.Sleep(time.Microsecond)
		}
	})
	var carriers []*carrier
	for step := 1; step <= 5; step++ {
		// A worker returned half a microsecond ago; the next is not spawned yet.
		if err := e.RunUntil(Time(2*step-1)*Time(time.Microsecond) + 500); err != nil {
			t.Fatal(err)
		}
		if len(e.idle) != 1 {
			t.Fatalf("step %d: %d idle carriers, want the worker's", step, len(e.idle))
		}
		carriers = append(carriers, e.idle[0])
	}
	for _, c := range carriers {
		if c != carriers[0] {
			t.Fatal("a limit-bounded RunUntil replaced the pooled carrier")
		}
	}
	if err := e.Run(); err != nil {
		t.Fatal(err)
	}
	if len(e.idle) != 0 {
		t.Errorf("a drained engine still holds %d idle carriers", len(e.idle))
	}
}
func TestCloseUnwindsBlockedProcesses(t *testing.T) {
	e := NewEngine(1)
	q := NewQueue[int](e, 0)
	unwound := 0
	e.GoDaemon("server", func(p *Proc) {
		defer func() { unwound++ }()
		q.Get(p)
		t.Error("server resumed")
	})
	e.Go("sleeper", func(p *Proc) {
		defer func() { unwound++ }()
		p.Sleep(time.Hour)
		t.Error("sleeper resumed")
	})
	e.Go("poller", func(p *Proc) {
		defer func() { unwound++ }()
		q.GetTimeout(p, time.Hour)
		t.Error("poller resumed")
	})
	if err := e.RunUntil(Time(time.Second)); err != nil {
		t.Fatal(err)
	}
	if e.Live() != 3 {
		t.Fatalf("live = %d before Close, want 3", e.Live())
	}
	e.Close()
	if unwound != 3 || e.Live() != 0 || e.Err() != nil {
		t.Fatalf("after Close: unwound=%d live=%d err=%v", unwound, e.Live(), e.Err())
	}
}
