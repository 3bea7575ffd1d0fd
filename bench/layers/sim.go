package layers

import (
	"time"

	"nvmeoaf/internal/sim"
)

// simEvent: Engine.After + Run, the timer-callback path (heap push, pop,
// dispatch) every wire delivery and device completion takes.
var simEvent = Driver{Name: "sim.drv_event", Allocs: true, Ops: 200_000, Prepare: func() func(int) {
	e := sim.NewEngine(1)
	fired := 0
	fn := func() { fired++ }
	return func(n int) {
		for i := 0; i < n; i++ {
			e.After(time.Duration(i%64)*time.Nanosecond, fn)
		}
		mustRun(e)
	}
}}

// simSleep: Proc.Sleep, the park/resume handoff between a process goroutine
// and the engine loop.
var simSleep = Driver{Name: "sim.drv_sleep", Allocs: true, Ops: 50_000, Prepare: func() func(int) {
	e := sim.NewEngine(1)
	return func(n int) {
		inProc(e, func(p *sim.Proc) {
			for i := 0; i < n; i++ {
				p.Sleep(time.Nanosecond)
			}
		})
	}
}}

// simSpawn: Engine.Go of a process that returns at once — what the target
// pays today for every read it serves.
var simSpawn = Driver{Name: "sim.drv_spawn", Allocs: true, Ops: 20_000, Prepare: func() func(int) {
	e := sim.NewEngine(1)
	noop := func(*sim.Proc) {}
	return func(n int) {
		for i := 0; i < n; i++ {
			e.Go("child", noop)
		}
		mustRun(e)
	}
}}

// simQueue: Queue.Put / Get between two processes, one blocking handoff per
// item.
var simQueue = Driver{Name: "sim.drv_queue", Allocs: true, Ops: 30_000, Prepare: func() func(int) {
	e := sim.NewEngine(1)
	return func(n int) {
		q := sim.NewQueue[int](e, 1)
		e.Go("consumer", func(p *sim.Proc) {
			for i := 0; i < n; i++ {
				if _, ok := q.Get(p); !ok {
					panic("sim driver: queue closed early")
				}
			}
		})
		inProc(e, func(p *sim.Proc) {
			for i := 0; i < n; i++ {
				q.Put(p, i)
			}
		})
	}
}}
