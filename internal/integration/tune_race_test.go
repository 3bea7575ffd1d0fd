package integration

import (
	"sync"
	"testing"
	"time"

	"nvmeoaf/internal/bdev"
	"nvmeoaf/internal/cache"
	"nvmeoaf/internal/core"
	"nvmeoaf/internal/dial"
	"nvmeoaf/internal/model"
	"nvmeoaf/internal/netsim"
	"nvmeoaf/internal/session"
	"nvmeoaf/internal/sim"
	"nvmeoaf/internal/target"
	"nvmeoaf/internal/transport"
)

// TestLiveKnobSettersRaceFree drives a TCP client workload on the
// engine goroutine while a foreign goroutine hammers every live-tuning
// setter the whole time. Run under -race (the repo's verify script
// does), this pins the contract that all hot-path knob reads go through
// atomics: a plain field read anywhere on the submit/reap/chunk/cache
// path turns this test into a detector report.
func TestLiveKnobSettersRaceFree(t *testing.T) {
	e := sim.NewEngine(11)
	tgt := target.New(e, model.DefaultHost())
	sub, _ := tgt.AddSubsystem("nqn.race")
	ssdParams := model.DefaultSSD()
	ssdParams.JitterFrac = 0
	ssdParams.StallProb = 0
	backing := bdev.NewSimSSD(e, "d", 1<<30, ssdParams, false, transport.BlockSize)
	ca := cache.New(e, backing, cache.Config{Bytes: 4 << 20, Mode: cache.WriteBack})
	sub.AddNamespace(1, ca)

	tp := model.DefaultTCPTransport()
	tp.BatchSize = 4
	link := netsim.NewLoopLink(e, model.TCP25G())
	o := dial.Options{Kind: dial.TCP25G, ConnOptions: session.ConnOptions{NQN: "nqn.race", QueueDepth: 32}, TP: tp}
	srv := dial.Serve(e, tgt, link.B, o)

	var mu sync.Mutex // publishes the client pointer to the hammer goroutine
	var cl *core.Client
	e.Go("app", func(p *sim.Proc) {
		q, err := dial.Connect(p, link.A, o)
		if err != nil {
			t.Error(err)
			return
		}
		c := q.(*core.Client)
		mu.Lock()
		cl = c
		mu.Unlock()
		for i := 0; i < 1000; i++ {
			size := 4096
			if i%7 == 0 {
				size = 256 << 10 // exercise the chunking path too
			}
			io := &transport.IO{Write: i%3 == 0, Offset: int64(i%512) * 4096, Size: size}
			if res := transport.Submit(p, c, io).Wait(p); res.Err() != nil {
				t.Error(res.Err())
				return
			}
		}
		c.Close()
		c.WaitClosed(p)
	})

	done := make(chan struct{})
	var wg sync.WaitGroup
	wg.Add(1)
	go func() {
		defer wg.Done()
		for i := 0; ; i++ {
			select {
			case <-done:
				return
			default:
			}
			mu.Lock()
			c := cl
			mu.Unlock()
			if c != nil {
				c.SetBatchSize(1 + i%16)
				_ = c.LiveBatchSize()
				c.SetPollBudget(time.Duration(i%50) * time.Microsecond)
				_ = c.LivePollBudget()
				c.SetQDTarget(1 + i%32)
				_ = c.QDTarget()
				c.SetChunkSize((16 << 10) << (i % 5))
				_ = c.LiveChunkSize()
			}
			srv.SetBatchSize(1 + (i+3)%16)
			_ = srv.LiveBatchSize()
			ca.SetMaxDirtyFrac(0.1 + float64(i%9)*0.1)
			_ = ca.MaxDirtyBytes()
			ca.SetBypassBytes((32 << 10) << (i % 4))
			_ = ca.LiveBypassBytes()
			// Yield so the engine goroutine keeps making progress; the
			// detector needs overlap, not volume.
			time.Sleep(20 * time.Microsecond)
		}
	}()

	err := e.Run()
	close(done)
	wg.Wait()
	if err != nil {
		t.Fatal(err)
	}
}
