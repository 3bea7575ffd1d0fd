package sim

import (
	"testing"
	"time"
)

func TestQueueFIFO(t *testing.T) {
	e := NewEngine(1)
	q := NewQueue[int](e, 0)
	var got []int
	e.Go("prod", func(p *Proc) {
		for i := 0; i < 5; i++ {
			q.Put(p, i)
		}
	})
	e.Go("cons", func(p *Proc) {
		for i := 0; i < 5; i++ {
			v, ok := q.Get(p)
			if !ok {
				t.Errorf("queue closed early")
			}
			got = append(got, v)
		}
	})
	if err := e.Run(); err != nil {
		t.Fatal(err)
	}
	for i, v := range got {
		if v != i {
			t.Fatalf("got %v", got)
		}
	}
}

func TestBoundedQueueBlocksProducer(t *testing.T) {
	e := NewEngine(1)
	q := NewQueue[int](e, 2)
	var thirdPutAt Time
	e.Go("prod", func(p *Proc) {
		q.Put(p, 1)
		q.Put(p, 2)
		q.Put(p, 3) // must block until consumer drains one
		thirdPutAt = p.Now()
	})
	e.Go("cons", func(p *Proc) {
		p.Sleep(50 * time.Microsecond)
		q.Get(p)
	})
	if err := e.Run(); err != nil {
		t.Fatal(err)
	}
	if thirdPutAt != Time(50*time.Microsecond) {
		t.Fatalf("third put completed at %v, want 50us", thirdPutAt)
	}
}

func TestQueueGetTimeout(t *testing.T) {
	e := NewEngine(1)
	q := NewQueue[int](e, 0)
	e.Go("cons", func(p *Proc) {
		_, ok := q.GetTimeout(p, 25*time.Microsecond)
		if ok {
			t.Error("expected timeout")
		}
		if p.Now() != Time(25*time.Microsecond) {
			t.Errorf("timed out at %v, want 25us", p.Now())
		}
	})
	if err := e.Run(); err != nil {
		t.Fatal(err)
	}
}

func TestQueueGetTimeoutWinsRace(t *testing.T) {
	e := NewEngine(1)
	q := NewQueue[int](e, 0)
	e.Go("prod", func(p *Proc) {
		p.Sleep(10 * time.Microsecond)
		q.Put(p, 99)
	})
	e.Go("cons", func(p *Proc) {
		v, ok := q.GetTimeout(p, 25*time.Microsecond)
		if !ok || v != 99 {
			t.Errorf("got (%d,%v), want (99,true)", v, ok)
		}
		// A second get must observe the timeout, not a stale wakeup.
		_, ok = q.GetTimeout(p, 5*time.Microsecond)
		if ok {
			t.Error("expected timeout on second get")
		}
	})
	if err := e.Run(); err != nil {
		t.Fatal(err)
	}
}

func TestQueueTryOps(t *testing.T) {
	e := NewEngine(1)
	q := NewQueue[int](e, 1)
	if _, ok := q.TryGet(); ok {
		t.Fatal("TryGet on empty should fail")
	}
	if !q.TryPut(7) {
		t.Fatal("TryPut on empty bounded queue should succeed")
	}
	if q.TryPut(8) {
		t.Fatal("TryPut on full queue should fail")
	}
	if v, ok := q.Peek(); !ok || v != 7 || q.Len() != 1 {
		t.Fatalf("Peek = (%d,%v) with %d queued, want (7,true) and 1 left", v, ok, q.Len())
	}
	v, ok := q.TryGet()
	if !ok || v != 7 {
		t.Fatalf("TryGet = (%d,%v)", v, ok)
	}
}

func TestQueueCloseDrains(t *testing.T) {
	e := NewEngine(1)
	q := NewQueue[int](e, 0)
	var got []int
	var sawClose bool
	e.Go("cons", func(p *Proc) {
		for {
			v, ok := q.Get(p)
			if !ok {
				sawClose = true
				return
			}
			got = append(got, v)
		}
	})
	e.Go("prod", func(p *Proc) {
		q.Put(p, 1)
		q.Put(p, 2)
		p.Sleep(time.Microsecond)
		q.Close()
	})
	if err := e.Run(); err != nil {
		t.Fatal(err)
	}
	if !sawClose || len(got) != 2 {
		t.Fatalf("got %v, sawClose=%v", got, sawClose)
	}
}

func TestSemaphoreLimitsConcurrency(t *testing.T) {
	e := NewEngine(1)
	s := NewSemaphore(e, 2)
	inFlight, peak := 0, 0
	for i := 0; i < 6; i++ {
		e.Go("worker", func(p *Proc) {
			s.Acquire(p)
			inFlight++
			if inFlight > peak {
				peak = inFlight
			}
			p.Sleep(10 * time.Microsecond)
			inFlight--
			s.Release()
		})
	}
	if err := e.Run(); err != nil {
		t.Fatal(err)
	}
	if peak != 2 {
		t.Fatalf("peak concurrency %d, want 2", peak)
	}
	if e.Now() != Time(30*time.Microsecond) {
		t.Fatalf("finished at %v, want 30us (3 waves of 10us)", e.Now())
	}
}

func TestSemaphoreTryAcquire(t *testing.T) {
	e := NewEngine(1)
	s := NewSemaphore(e, 1)
	if !s.TryAcquire() {
		t.Fatal("first TryAcquire should succeed")
	}
	if s.TryAcquire() {
		t.Fatal("second TryAcquire should fail")
	}
	s.Release()
	if s.Available() != 1 {
		t.Fatalf("available = %d", s.Available())
	}
}

func TestSignalBroadcast(t *testing.T) {
	e := NewEngine(1)
	sig := NewSignal(e)
	woke := 0
	for i := 0; i < 4; i++ {
		e.Go("waiter", func(p *Proc) {
			sig.Wait(p)
			woke++
		})
	}
	e.Go("firer", func(p *Proc) {
		p.Sleep(5 * time.Microsecond)
		sig.Fire()
	})
	if err := e.Run(); err != nil {
		t.Fatal(err)
	}
	if woke != 4 {
		t.Fatalf("woke = %d, want 4", woke)
	}
}

func TestSignalWaitTimeout(t *testing.T) {
	e := NewEngine(1)
	sig := NewSignal(e)
	e.Go("waiter", func(p *Proc) {
		if sig.WaitTimeout(p, 10*time.Microsecond) {
			t.Error("expected timeout")
		}
	})
	if err := e.Run(); err != nil {
		t.Fatal(err)
	}
}

func TestFutureResolve(t *testing.T) {
	e := NewEngine(1)
	f := NewFuture[string](e)
	if _, ok := f.Value(); ok {
		t.Fatal("unresolved future should have no value")
	}
	e.Go("waiter", func(p *Proc) {
		if got := f.Wait(p); got != "done" {
			t.Errorf("got %q", got)
		}
	})
	e.Go("resolver", func(p *Proc) {
		p.Sleep(time.Microsecond)
		f.Resolve("done")
	})
	if err := e.Run(); err != nil {
		t.Fatal(err)
	}
	if v, ok := f.Value(); !ok || v != "done" {
		t.Fatalf("Value = (%q,%v)", v, ok)
	}
}

func TestFutureDoubleResolvePanics(t *testing.T) {
	e := NewEngine(1)
	f := NewFuture[int](e)
	e.Go("bad", func(p *Proc) {
		f.Resolve(1)
		f.Resolve(2)
	})
	if err := e.Run(); err == nil {
		t.Fatal("expected panic error from double resolve")
	}
}

func TestWaitGroup(t *testing.T) {
	e := NewEngine(1)
	wg := NewWaitGroup(e)
	var doneAt Time
	wg.Add(3)
	for i := 1; i <= 3; i++ {
		d := time.Duration(i) * 10 * time.Microsecond
		e.Go("w", func(p *Proc) {
			p.Sleep(d)
			wg.Done()
		})
	}
	e.Go("main", func(p *Proc) {
		wg.Wait(p)
		doneAt = p.Now()
	})
	if err := e.Run(); err != nil {
		t.Fatal(err)
	}
	if doneAt != Time(30*time.Microsecond) {
		t.Fatalf("wait released at %v, want 30us", doneAt)
	}
}

func TestWaitGroupReuse(t *testing.T) {
	e := NewEngine(1)
	wg := NewWaitGroup(e)
	e.Go("main", func(p *Proc) {
		for round := 0; round < 3; round++ {
			wg.Add(2)
			for i := 0; i < 2; i++ {
				e.Go("w", func(c *Proc) {
					c.Sleep(time.Microsecond)
					wg.Done()
				})
			}
			wg.Wait(p)
		}
	})
	if err := e.Run(); err != nil {
		t.Fatal(err)
	}
}
