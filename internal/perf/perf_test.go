package perf

import (
	"testing"
	"time"

	"nvmeoaf/internal/bdev"
	"nvmeoaf/internal/dial"
	"nvmeoaf/internal/model"
	"nvmeoaf/internal/netsim"
	"nvmeoaf/internal/session"
	"nvmeoaf/internal/sim"
	"nvmeoaf/internal/stats"
	"nvmeoaf/internal/target"
	"nvmeoaf/internal/transport"
)

// rig builds one TCP stream testbed.
func rig(t *testing.T, seed int64) (*sim.Engine, func(p *sim.Proc, qd int) transport.Queue) {
	t.Helper()
	e := sim.NewEngine(seed)
	tgt := target.New(e, model.DefaultHost())
	sub, err := tgt.AddSubsystem("nqn.perf")
	if err != nil {
		t.Fatal(err)
	}
	ssdParams := model.DefaultSSD()
	ssdParams.JitterFrac = 0
	ssdParams.StallProb = 0
	if _, err := sub.AddNamespace(1, bdev.NewSimSSD(e, "d", 1<<30, ssdParams, false, transport.BlockSize)); err != nil {
		t.Fatal(err)
	}
	link := netsim.NewLoopLink(e, model.TCP25G())
	o := dial.Options{Kind: dial.TCP25G, ConnOptions: session.ConnOptions{NQN: "nqn.perf"}, TP: model.DefaultTCPTransport()}
	dial.Serve(e, tgt, link.B, o)
	return e, func(p *sim.Proc, qd int) transport.Queue {
		o.QueueDepth = qd
		c, err := dial.Connect(p, link.A, o)
		if err != nil {
			t.Fatal(err)
		}
		return c
	}
}

func TestStreamMeasuresThroughputAndLatency(t *testing.T) {
	e, connect := rig(t, 1)
	var res *Result
	e.Go("main", func(p *sim.Proc) {
		q := connect(p, 16)
		s := NewStream(e, "t", q, Workload{
			Seq: true, ReadPct: 100, IOSize: 128 << 10,
			QueueDepth: 16, Warmup: 20 * time.Millisecond, Duration: 200 * time.Millisecond,
		}, nil)
		s.Start()
		res = s.Wait(p)
	})
	if err := e.Run(); err != nil {
		t.Fatal(err)
	}
	if res.Throughput.Ops == 0 || res.Throughput.GBps() <= 0 {
		t.Fatalf("no throughput: %+v", res.Throughput)
	}
	if res.Latency.Count() != res.Throughput.Ops {
		t.Fatalf("latency samples %d != ops %d", res.Latency.Count(), res.Throughput.Ops)
	}
	if res.Errors != 0 {
		t.Fatalf("errors %d", res.Errors)
	}
	if res.BD.MeanTotal() <= 0 || res.BD.MeanIO() <= 0 {
		t.Fatalf("breakdown empty: %+v", res.BD)
	}
	if res.WriteLatency.Count() != 0 {
		t.Fatal("pure read workload recorded writes")
	}
}

func TestMixedWorkloadSplitsLatencies(t *testing.T) {
	e, connect := rig(t, 2)
	var res *Result
	e.Go("main", func(p *sim.Proc) {
		q := connect(p, 8)
		s := NewStream(e, "mix", q, Workload{
			ReadPct: 70, IOSize: 4096,
			QueueDepth: 8, Duration: 100 * time.Millisecond,
		}, nil)
		s.Start()
		res = s.Wait(p)
	})
	if err := e.Run(); err != nil {
		t.Fatal(err)
	}
	r, w := res.ReadLatency.Count(), res.WriteLatency.Count()
	if r == 0 || w == 0 {
		t.Fatalf("mix not mixed: reads %d writes %d", r, w)
	}
	frac := float64(r) / float64(r+w)
	if frac < 0.6 || frac > 0.8 {
		t.Fatalf("read fraction %.2f, want ~0.7", frac)
	}
}

func TestWarmupExcluded(t *testing.T) {
	e, connect := rig(t, 3)
	var res *Result
	e.Go("main", func(p *sim.Proc) {
		q := connect(p, 4)
		s := NewStream(e, "warm", q, Workload{
			Seq: true, ReadPct: 100, IOSize: 4096,
			QueueDepth: 4, Warmup: 50 * time.Millisecond, Duration: 100 * time.Millisecond,
		}, nil)
		s.Start()
		res = s.Wait(p)
	})
	if err := e.Run(); err != nil {
		t.Fatal(err)
	}
	if res.Throughput.Window() != 100*time.Millisecond {
		t.Fatalf("window %v", res.Throughput.Window())
	}
}

func TestQueueDepthScalesThroughput(t *testing.T) {
	run := func(qd int) float64 {
		e, connect := rig(t, 4)
		var res *Result
		e.Go("main", func(p *sim.Proc) {
			q := connect(p, qd)
			s := NewStream(e, "qd", q, Workload{
				Seq: true, ReadPct: 100, IOSize: 4096,
				QueueDepth: qd, Duration: 100 * time.Millisecond,
			}, nil)
			s.Start()
			res = s.Wait(p)
		})
		if err := e.Run(); err != nil {
			t.Fatal(err)
		}
		return res.Throughput.IOPS()
	}
	if lo, hi := run(1), run(16); hi < 3*lo {
		t.Fatalf("QD16 (%.0f IOPS) should be >>3x QD1 (%.0f IOPS)", hi, lo)
	}
}

func TestMergeAggregates(t *testing.T) {
	a := &Result{Latency: newHist(10), ReadLatency: newHist(10), WriteLatency: newHist(0)}
	a.Throughput.Ops, a.Throughput.Bytes = 10, 4096*10
	a.Throughput.End = time.Second
	b := &Result{Latency: newHist(20), ReadLatency: newHist(20), WriteLatency: newHist(0)}
	b.Throughput.Ops, b.Throughput.Bytes = 20, 4096*20
	b.Throughput.End = time.Second
	agg := Merge(a, b)
	if agg.Throughput.Ops != 30 || agg.Throughput.Bytes != 4096*30 {
		t.Fatalf("agg: %+v", agg.Throughput)
	}
	if agg.Latency.Count() != 30 {
		t.Fatalf("latency samples %d", agg.Latency.Count())
	}
	if agg.String() == "" {
		t.Fatal("empty string")
	}
}

func newHist(n int) *stats.Histogram {
	h := stats.NewHistogram()
	for i := 0; i < n; i++ {
		h.Record(int64(i + 1))
	}
	return h
}

func TestSizeMixDistribution(t *testing.T) {
	e, connect := rig(t, 5)
	var res *Result
	e.Go("main", func(p *sim.Proc) {
		q := connect(p, 8)
		s := NewStream(e, "mix-sizes", q, Workload{
			Seq: true, ReadPct: 100,
			SizeMix: []SizeWeight{
				{Size: 4096, Weight: 3},
				{Size: 128 << 10, Weight: 1},
			},
			QueueDepth: 8, Duration: 100 * time.Millisecond,
		}, nil)
		s.Start()
		res = s.Wait(p)
	})
	if err := e.Run(); err != nil {
		t.Fatal(err)
	}
	if res.Throughput.Ops == 0 {
		t.Fatal("no ops")
	}
	// Mean request size should land between the two sizes, closer to 4K
	// (3:1 weighting): expected ~(3*4K + 128K)/4 = 35K.
	mean := float64(res.Throughput.Bytes) / float64(res.Throughput.Ops)
	if mean < 8<<10 || mean > 80<<10 {
		t.Fatalf("mean request size %.0f bytes, want ~35K", mean)
	}
}
