package sim

import (
	"strings"
	"testing"
	"time"
)

func TestClockAdvancesWithSleep(t *testing.T) {
	e := NewEngine(1)
	var wake Time
	e.Go("sleeper", func(p *Proc) {
		p.Sleep(42 * time.Microsecond)
		wake = p.Now()
	})
	if err := e.Run(); err != nil {
		t.Fatal(err)
	}
	if wake != Time(42*time.Microsecond) {
		t.Fatalf("woke at %v, want 42us", wake)
	}
}

func TestEventsFireInTimeOrder(t *testing.T) {
	e := NewEngine(1)
	var order []int
	e.After(30*time.Microsecond, func() { order = append(order, 3) })
	e.After(10*time.Microsecond, func() { order = append(order, 1) })
	e.After(20*time.Microsecond, func() { order = append(order, 2) })
	if err := e.Run(); err != nil {
		t.Fatal(err)
	}
	for i, v := range order {
		if v != i+1 {
			t.Fatalf("order = %v", order)
		}
	}
}

func TestEqualTimestampsFireFIFO(t *testing.T) {
	e := NewEngine(1)
	var order []int
	for i := 0; i < 10; i++ {
		i := i
		e.After(time.Microsecond, func() { order = append(order, i) })
	}
	if err := e.Run(); err != nil {
		t.Fatal(err)
	}
	for i, v := range order {
		if v != i {
			t.Fatalf("order = %v", order)
		}
	}
}

func TestNestedSpawn(t *testing.T) {
	e := NewEngine(1)
	total := 0
	e.Go("parent", func(p *Proc) {
		for i := 0; i < 5; i++ {
			e.Go("child", func(c *Proc) {
				c.Sleep(time.Microsecond)
				total++
			})
		}
	})
	if err := e.Run(); err != nil {
		t.Fatal(err)
	}
	if total != 5 {
		t.Fatalf("total = %d, want 5", total)
	}
}

// A parent joins a child by waiting on a signal the child fires as it ends.
func TestJoinWaitsForChild(t *testing.T) {
	e := NewEngine(1)
	var joined Time
	e.Go("parent", func(p *Proc) {
		done := NewSignal(e)
		e.Go("child", func(c *Proc) {
			c.Sleep(100 * time.Microsecond)
			done.Fire()
		})
		done.Wait(p)
		joined = p.Now()
	})
	if err := e.Run(); err != nil {
		t.Fatal(err)
	}
	if joined != Time(100*time.Microsecond) {
		t.Fatalf("joined at %v, want 100us", joined)
	}
}

func TestJoinFinishedProcReturnsImmediately(t *testing.T) {
	e := NewEngine(1)
	e.Go("parent", func(p *Proc) {
		done := NewSignal(e)
		e.Go("child", func(c *Proc) { done.Fire() })
		p.Sleep(time.Millisecond)
		start := p.Now()
		done.Wait(p)
		if p.Now() != start {
			t.Errorf("join of finished child advanced time")
		}
	})
	if err := e.Run(); err != nil {
		t.Fatal(err)
	}
}

func TestPanicSurfacesAsError(t *testing.T) {
	e := NewEngine(1)
	e.Go("boom", func(p *Proc) {
		p.Sleep(time.Microsecond)
		panic("kaboom")
	})
	err := e.Run()
	if err == nil || !strings.Contains(err.Error(), `"boom"`) || !strings.Contains(err.Error(), "kaboom") {
		t.Fatalf("err = %v, want the process name and the panic value", err)
	}
}

func TestDeadlockDetected(t *testing.T) {
	e := NewEngine(1)
	q := NewQueue[int](e, 0)
	e.Go("starved", func(p *Proc) {
		q.Get(p) // nobody ever puts
	})
	err := e.Run()
	if err == nil {
		t.Fatal("expected deadlock error")
	}
}

func TestRunUntilStopsClock(t *testing.T) {
	e := NewEngine(1)
	n := 0
	e.Go("ticker", func(p *Proc) {
		for i := 0; i < 1000; i++ {
			p.Sleep(time.Millisecond)
			n++
		}
	})
	if err := e.RunUntil(Time(10*time.Millisecond + time.Microsecond)); err != nil {
		t.Fatal(err)
	}
	if n != 10 {
		t.Fatalf("ticks = %d, want 10", n)
	}
	if e.Now() != Time(10*time.Millisecond+time.Microsecond) {
		t.Fatalf("clock = %v", e.Now())
	}
}

func TestRandStreamsIndependentAndReproducible(t *testing.T) {
	a1 := NewEngine(7).Rand("a").Int63()
	a2 := NewEngine(7).Rand("a").Int63()
	b := NewEngine(7).Rand("b").Int63()
	if a1 != a2 {
		t.Fatal("same seed+stream should reproduce")
	}
	if a1 == b {
		t.Fatal("different streams should differ")
	}
}

func TestDeterministicInterleaving(t *testing.T) {
	run := func() []string {
		e := NewEngine(3)
		var log []string
		q := NewQueue[string](e, 2)
		for i, name := range []string{"a", "b", "c"} {
			name := name
			d := time.Duration(i) * 10 * time.Microsecond
			e.Go("prod-"+name, func(p *Proc) {
				p.Sleep(d)
				for j := 0; j < 3; j++ {
					q.Put(p, name)
					p.Sleep(7 * time.Microsecond)
				}
			})
		}
		e.Go("cons", func(p *Proc) {
			for i := 0; i < 9; i++ {
				v, _ := q.Get(p)
				log = append(log, v)
				p.Sleep(5 * time.Microsecond)
			}
		})
		if err := e.Run(); err != nil {
			t.Fatal(err)
		}
		return log
	}
	first := run()
	for i := 0; i < 3; i++ {
		again := run()
		for j := range first {
			if first[j] != again[j] {
				t.Fatalf("run %d diverged at %d: %v vs %v", i, j, first, again)
			}
		}
	}
}

func TestTimeArithmetic(t *testing.T) {
	tm := Time(1500)
	if tm.Add(500).Nanoseconds() != 2000 {
		t.Fatal("Add")
	}
	if tm.Sub(Time(500)) != 1000*time.Nanosecond {
		t.Fatal("Sub")
	}
	if Time(2e3).Micros() != 2 {
		t.Fatal("Micros")
	}
	if Time(3e9).Seconds() != 3 {
		t.Fatal("Seconds")
	}
}

// BenchmarkEngineEventThroughput measures the kernel's raw event rate:
// how many process wake/sleep handoffs per second the simulator sustains.
func BenchmarkEngineEventThroughput(b *testing.B) {
	for i := 0; i < b.N; i++ {
		e := NewEngine(1)
		const procs, ticks = 8, 2000
		for j := 0; j < procs; j++ {
			e.Go("ticker", func(p *Proc) {
				for k := 0; k < ticks; k++ {
					p.Sleep(time.Microsecond)
				}
			})
		}
		if err := e.Run(); err != nil {
			b.Fatal(err)
		}
		b.ReportMetric(float64(procs*ticks), "events/op")
	}
}
