package tcp

import (
	"bytes"
	"testing"
	"time"

	"nvmeoaf/internal/bdev"
	"nvmeoaf/internal/core"
	"nvmeoaf/internal/dial"
	"nvmeoaf/internal/host"
	"nvmeoaf/internal/model"
	"nvmeoaf/internal/netsim"
	"nvmeoaf/internal/nvme"
	"nvmeoaf/internal/session"
	"nvmeoaf/internal/sim"
	"nvmeoaf/internal/target"
	"nvmeoaf/internal/transport"
)

const testNQN = "nqn.2022-06.io.oaf:testsub"

// rig wires a client and a target through a loopback link, served and
// connected as dial's tcp-25g row.
type rig struct {
	e      *sim.Engine
	srv    *dial.Server
	link   *netsim.Link
	bdev   *bdev.SSDBdev
	tp     model.TCPTransportParams
	retain bool
}

func newRig(t *testing.T, retainData bool, tpMut func(*model.TCPTransportParams)) *rig {
	t.Helper()
	e := sim.NewEngine(1)
	tgt := target.New(e, model.DefaultHost())
	sub, err := tgt.AddSubsystem(testNQN)
	if err != nil {
		t.Fatal(err)
	}
	ssdParams := model.DefaultSSD()
	ssdParams.JitterFrac = 0
	ssdParams.StallProb = 0
	bd := bdev.NewSimSSD(e, "nvme0", 1<<30, ssdParams, retainData, transport.BlockSize)
	if _, err := sub.AddNamespace(1, bd); err != nil {
		t.Fatal(err)
	}
	tp := model.DefaultTCPTransport()
	if tpMut != nil {
		tpMut(&tp)
	}
	link := netsim.NewLoopLink(e, model.TCP25G())
	srv := dial.Serve(e, tgt, link.B, dial.Options{Kind: dial.TCP25G, ConnOptions: session.ConnOptions{NQN: testNQN}, TP: tp})
	return &rig{e: e, srv: srv, link: link, bdev: bd, tp: tp, retain: retainData}
}

func (r *rig) connect(t *testing.T, p *sim.Proc, qd int) *core.Client {
	return connect(t, p, r.link.A, session.ConnOptions{NQN: testNQN, QueueDepth: qd}, r.tp)
}

// connect opens a tcp-25g host queue over ep.
func connect(t *testing.T, p *sim.Proc, ep *netsim.Endpoint, co session.ConnOptions, tp model.TCPTransportParams) *core.Client {
	t.Helper()
	q, err := dial.Connect(p, ep, dial.Options{Kind: dial.TCP25G, ConnOptions: co, TP: tp})
	if err != nil {
		t.Fatal(err)
	}
	return q.(*core.Client)
}

func TestHandshake(t *testing.T) {
	r := newRig(t, false, nil)
	r.e.Go("app", func(p *sim.Proc) {
		c := r.connect(t, p, 8)
		if c.ICResp().MaxH2CData != uint32(model.DefaultTCPTransport().ChunkSize) {
			t.Errorf("negotiated chunk %d", c.ICResp().MaxH2CData)
		}
		c.Close()
		c.WaitClosed(p)
	})
	if err := r.e.Run(); err != nil {
		t.Fatal(err)
	}
}

func TestReadWriteVirtualPayload(t *testing.T) {
	r := newRig(t, false, nil)
	r.e.Go("app", func(p *sim.Proc) {
		c := r.connect(t, p, 8)
		// Large write: conservative flow with R2T.
		res := transport.Submit(p, c, &transport.IO{Write: true, Offset: 0, Size: 128 << 10}).Wait(p)
		if res.Err() != nil {
			t.Errorf("write: %v", res.Err())
		}
		if res.Latency <= 0 || res.IOTime <= 0 || res.CommTime <= 0 {
			t.Errorf("write timing: %+v", res)
		}
		// Read back (virtual).
		res = transport.Submit(p, c, &transport.IO{Offset: 0, Size: 128 << 10}).Wait(p)
		if res.Err() != nil {
			t.Errorf("read: %v", res.Err())
		}
		if res.IOTime <= 0 || res.CommTime <= 0 {
			t.Errorf("read timing: %+v", res)
		}
		if got := res.IOTime + res.CommTime + res.OtherTime; got != res.Latency {
			t.Errorf("breakdown %v != latency %v", got, res.Latency)
		}
		c.Close()
		c.WaitClosed(p)
	})
	if err := r.e.Run(); err != nil {
		t.Fatal(err)
	}
}

func TestRealDataRoundTrip(t *testing.T) {
	r := newRig(t, true, nil)
	payload := make([]byte, 256<<10)
	for i := range payload {
		payload[i] = byte(i*7 + 3)
	}
	r.e.Go("app", func(p *sim.Proc) {
		c := r.connect(t, p, 8)
		res := transport.Submit(p, c, &transport.IO{Write: true, Offset: 4096, Size: len(payload), Data: payload}).Wait(p)
		if res.Err() != nil {
			t.Fatalf("write: %v", res.Err())
		}
		into := make([]byte, len(payload))
		res = transport.Submit(p, c, &transport.IO{Offset: 4096, Size: len(payload), Data: into}).Wait(p)
		if res.Err() != nil {
			t.Fatalf("read: %v", res.Err())
		}
		if !bytes.Equal(res.Data, payload) {
			t.Error("payload mismatch through NVMe/TCP")
		}
		c.Close()
		c.WaitClosed(p)
	})
	if err := r.e.Run(); err != nil {
		t.Fatal(err)
	}
}

func TestInCapsuleWriteSkipsR2T(t *testing.T) {
	r := newRig(t, false, nil)
	r.e.Go("app", func(p *sim.Proc) {
		c := r.connect(t, p, 8)
		small := transport.Submit(p, c, &transport.IO{Write: true, Offset: 0, Size: 4 << 10}).Wait(p)
		if small.Err() != nil {
			t.Fatal(small.Err())
		}
		large := transport.Submit(p, c, &transport.IO{Write: true, Offset: 0, Size: 64 << 10}).Wait(p)
		if large.Err() != nil {
			t.Fatal(large.Err())
		}
		c.Close()
		c.WaitClosed(p)
	})
	if err := r.e.Run(); err != nil {
		t.Fatal(err)
	}
	// 4KB in-capsule: capsule, resp = 2 messages on client link.
	// 64KB conservative: capsule, R2T, data, resp = 4 messages.
	// Plus ICReq/ICResp, Fabrics Connect, and Term.
	wantSent := int64(1 + 1 + 1 + 2 + 1) // ICReq + connect + small capsule + (large capsule+data) + term
	if r.link.A.MsgsSent != wantSent {
		t.Fatalf("client sent %d messages, want %d (in-capsule flow must skip R2T data msg)",
			r.link.A.MsgsSent, wantSent)
	}
}

func TestQueueDepthLimitsOutstanding(t *testing.T) {
	r := newRig(t, false, nil)
	const qd, total = 4, 32
	r.e.Go("app", func(p *sim.Proc) {
		c := r.connect(t, p, qd)
		futs := make([]*sim.Future[*transport.Result], 0, total)
		for i := 0; i < total; i++ {
			futs = append(futs, transport.Submit(p, c, &transport.IO{Offset: int64(i) * 4096, Size: 4096}))
		}
		for _, f := range futs {
			if res := f.Wait(p); res.Err() != nil {
				t.Errorf("io failed: %v", res.Err())
			}
		}
		if c.Completed != total {
			t.Errorf("completed %d", c.Completed)
		}
		c.Close()
		c.WaitClosed(p)
	})
	if err := r.e.Run(); err != nil {
		t.Fatal(err)
	}
}

func TestChunkingSplitsLargeIO(t *testing.T) {
	r := newRig(t, false, func(tp *model.TCPTransportParams) { tp.ChunkSize = 64 << 10 })
	r.e.Go("app", func(p *sim.Proc) {
		c := r.connect(t, p, 4)
		res := transport.Submit(p, c, &transport.IO{Offset: 0, Size: 512 << 10}).Wait(p)
		if res.Err() != nil {
			t.Fatal(res.Err())
		}
		c.Close()
		c.WaitClosed(p)
	})
	if err := r.e.Run(); err != nil {
		t.Fatal(err)
	}
	// The 512KB read must arrive as 8 x 64KB data messages (last batched
	// with the response): ICResp + connect resp + 8 = 10 messages from
	// the server.
	if got := r.link.B.MsgsSent; got != 10 {
		t.Fatalf("server sent %d messages, want 10", got)
	}
}

func TestUnalignedIORejected(t *testing.T) {
	r := newRig(t, false, nil)
	r.e.Go("app", func(p *sim.Proc) {
		c := r.connect(t, p, 4)
		res := transport.Submit(p, c, &transport.IO{Offset: 3, Size: 4096}).Wait(p)
		if res.Err() == nil {
			t.Error("unaligned offset accepted")
		}
		res = transport.Submit(p, c, &transport.IO{Offset: 0, Size: 100}).Wait(p)
		if res.Err() == nil {
			t.Error("unaligned size accepted")
		}
		c.Close()
		c.WaitClosed(p)
	})
	if err := r.e.Run(); err != nil {
		t.Fatal(err)
	}
}

func TestLBAOutOfRangeStatus(t *testing.T) {
	r := newRig(t, false, nil)
	r.e.Go("app", func(p *sim.Proc) {
		c := r.connect(t, p, 4)
		res := transport.Submit(p, c, &transport.IO{Offset: 1 << 30, Size: 4096}).Wait(p)
		if res.Status != nvme.StatusLBAOutOfRange {
			t.Errorf("status %v, want LBA out of range", res.Status)
		}
		c.Close()
		c.WaitClosed(p)
	})
	if err := r.e.Run(); err != nil {
		t.Fatal(err)
	}
}

func TestBufferPoolBackpressure(t *testing.T) {
	// Pool with 2 chunk buffers; 8 concurrent 128KB reads must wait for
	// credits but all complete.
	r := newRig(t, false, func(tp *model.TCPTransportParams) { tp.DataBuffers = 2 })
	r.e.Go("app", func(p *sim.Proc) {
		c := r.connect(t, p, 8)
		var futs []*sim.Future[*transport.Result]
		for i := 0; i < 8; i++ {
			futs = append(futs, transport.Submit(p, c, &transport.IO{Offset: int64(i) * (128 << 10), Size: 128 << 10}))
		}
		for _, f := range futs {
			if res := f.Wait(p); res.Err() != nil {
				t.Errorf("io: %v", res.Err())
			}
		}
		c.Close()
		c.WaitClosed(p)
	})
	if err := r.e.Run(); err != nil {
		t.Fatal(err)
	}
	if r.srv.BufferWaits == 0 {
		t.Fatal("expected buffer waits with a 2-element pool")
	}
	if r.srv.Pool.InUse() != 0 {
		t.Fatalf("leaked %d pool buffers", r.srv.Pool.InUse())
	}
}

func TestIdentifyAdminCommand(t *testing.T) {
	r := newRig(t, false, nil)
	r.e.Go("app", func(p *sim.Proc) {
		c := r.connect(t, p, 4)
		id, err := host.Identify(p, c)
		if err != nil {
			t.Fatalf("identify: %v", err)
		}
		if id.Info.NN != 1 {
			t.Errorf("controller NN = %d", id.Info.NN)
		}
		if id.NS.BlockSize != transport.BlockSize || id.NS.NSZE != uint64((1<<30)/transport.BlockSize) {
			t.Errorf("namespace: %+v", id.NS)
		}
		c.Close()
		c.WaitClosed(p)
	})
	if err := r.e.Run(); err != nil {
		t.Fatal(err)
	}
}

func TestFasterLinkIsFaster(t *testing.T) {
	// Sanity: the same workload completes sooner over 100G than 10G.
	elapsed := func(kind dial.Kind) sim.Time {
		e := sim.NewEngine(1)
		tgt := target.New(e, model.DefaultHost())
		sub, _ := tgt.AddSubsystem(testNQN)
		ssdParams := model.DefaultSSD()
		ssdParams.JitterFrac = 0
		ssdParams.StallProb = 0
		sub.AddNamespace(1, bdev.NewSimSSD(e, "d", 1<<30, ssdParams, false, transport.BlockSize))
		link, err := kind.Link()
		if err != nil {
			t.Fatal(err)
		}
		l := netsim.NewLoopLink(e, link)
		o := dial.Options{Kind: kind, ConnOptions: session.ConnOptions{NQN: testNQN, QueueDepth: 16}, TP: model.DefaultTCPTransport()}
		dial.Serve(e, tgt, l.B, o)
		var done sim.Time
		e.Go("app", func(p *sim.Proc) {
			q, err := dial.Connect(p, l.A, o)
			if err != nil {
				t.Fatal(err)
			}
			c := q.(*core.Client)
			var futs []*sim.Future[*transport.Result]
			for i := 0; i < 64; i++ {
				futs = append(futs, transport.Submit(p, c, &transport.IO{Offset: int64(i) * (128 << 10), Size: 128 << 10}))
			}
			for _, f := range futs {
				f.Wait(p)
			}
			done = p.Now()
			c.Close()
			c.WaitClosed(p)
		})
		if err := e.Run(); err != nil {
			t.Fatal(err)
		}
		return done
	}
	slow := elapsed(dial.TCP10G)
	fast := elapsed(dial.TCP100G)
	if fast >= slow {
		t.Fatalf("100G (%v) not faster than 10G (%v)", fast, slow)
	}
}

func TestBusyPollEliminatesWakeupPenalties(t *testing.T) {
	// With commands continuously in flight, a busy-polling client catches
	// completions on-CPU: no interrupt wakeups, and total time no worse
	// than interrupt mode.
	run := func(poll time.Duration) (sim.Time, int64, int64) {
		// Poll on the client side only: a polling server shifts response
		// phases and would mask the client-side comparison.
		r := newRig(t, false, nil)
		var done sim.Time
		r.e.Go("app", func(p *sim.Proc) {
			tp := model.DefaultTCPTransport()
			tp.BusyPoll = poll
			c := connect(t, p, r.link.A, session.ConnOptions{NQN: testNQN, QueueDepth: 2}, tp)
			// Two outstanding reads at a time: after the reactor handles
			// one completion, the next arrives within the poll budget, so
			// a busy-polling client catches it on-CPU while interrupt
			// mode pays a wakeup.
			var futs []*sim.Future[*transport.Result]
			for i := 0; i < 50; i++ {
				futs = append(futs, transport.Submit(p, c, &transport.IO{Offset: int64(i) * 4096, Size: 4096}))
			}
			for _, f := range futs {
				f.Wait(p)
			}
			done = p.Now()
			c.Close()
			c.WaitClosed(p)
		})
		if err := r.e.Run(); err != nil {
			t.Fatal(err)
		}
		return done, r.link.A.Wakeups, r.link.A.PollHits
	}
	intTime, intWakeups, _ := run(0)
	pollTime, pollWakeups, hits := run(250 * time.Microsecond)
	if intWakeups == 0 {
		t.Fatal("interrupt mode should pay wakeups")
	}
	if hits == 0 {
		t.Fatal("busy poll should record hits")
	}
	if pollWakeups >= intWakeups {
		t.Fatalf("poll wakeups %d should be fewer than interrupt %d", pollWakeups, intWakeups)
	}
	if pollTime > intTime*11/10 {
		t.Fatalf("busy poll time %v much worse than interrupt %v", pollTime, intTime)
	}
}

func TestKeepAliveKeepsConnectionAlive(t *testing.T) {
	// A client sending keep-alives survives the target's KATO watchdog
	// through a long idle period; a silent client gets torn down.
	run := func(keepAlive time.Duration) bool {
		e := sim.NewEngine(1)
		tgt := target.New(e, model.DefaultHost())
		sub, _ := tgt.AddSubsystem(testNQN)
		ssdParams := model.DefaultSSD()
		ssdParams.JitterFrac = 0
		ssdParams.StallProb = 0
		sub.AddNamespace(1, bdev.NewSimSSD(e, "d", 1<<20, ssdParams, false, transport.BlockSize))
		// Built directly, not through dial.Serve, for the served Conn.
		srv := core.NewServer(e, tgt, core.ServerConfig{
			ServeOptions: session.ServeOptions{NQN: testNQN, KATO: 5 * time.Millisecond},
			TrType:       nvme.TrTypeTCP,
			TP:           model.DefaultTCPTransport(),
		})
		link := netsim.NewLoopLink(e, model.TCP25G())
		conn := srv.Serve(link.B)
		e.Go("app", func(p *sim.Proc) {
			c := connect(t, p, link.A, session.ConnOptions{NQN: testNQN, QueueDepth: 4, KeepAlive: keepAlive}, model.DefaultTCPTransport())
			// Idle for several KATO periods.
			p.Sleep(30 * time.Millisecond)
			c.Close()
		})
		if err := e.RunUntil(sim.Time(100 * time.Millisecond)); err != nil {
			t.Fatal(err)
		}
		return conn.Expired
	}
	if expired := run(2 * time.Millisecond); expired {
		t.Fatal("keep-alive client should not expire")
	}
	if expired := run(0); !expired {
		t.Fatal("silent client should hit the KATO watchdog")
	}
}

func TestFabricsConnectRejectsWrongNQN(t *testing.T) {
	r := newRig(t, false, nil)
	r.e.Go("app", func(p *sim.Proc) {
		_, err := dial.Connect(p, r.link.A, dial.Options{
			Kind:        dial.TCP25G,
			ConnOptions: session.ConnOptions{NQN: "nqn.wrong-subsystem", QueueDepth: 4},
			TP:          model.DefaultTCPTransport(),
		})
		if err == nil {
			t.Error("connect to unknown subsystem should be rejected")
		}
	})
	if err := r.e.Run(); err != nil {
		t.Fatal(err)
	}
}

// Two processes share one queue. A stages a 128 KiB write and sleeps in
// its doorbell (payload fill, then submit CPU); B stages and rings a
// 4 KiB read while A sleeps there. Each doorbell publishes exactly its
// own process's command, after that process's own submit CPU: B does not
// wait out A's fill, A's write does not go out on B's doorbell, and each
// latency clock starts when its own command was published. The absolute
// completion times are those of the per-command Submit method this
// schedule ran on before the stage-then-doorbell primitive replaced it.
func TestInterleavedSubmitsPublishAfterOwnSubmitCPU(t *testing.T) {
	r := newRig(t, false, nil)
	hp := model.DefaultHost()
	const bDelay = 10 * time.Microsecond
	fill := time.Duration(float64(128<<10) * hp.FillPerByteNanos)
	if fill <= bDelay+hp.SubmitCPU {
		t.Fatalf("fill %v too short for B to ring inside A's doorbell", fill)
	}
	type outcome struct {
		rang, done sim.Time // Submit returned; command completed
		res        *transport.Result
	}
	var t0 sim.Time
	var a, b outcome
	closed := sim.NewWaitGroup(r.e)
	closed.Add(2)
	submit := func(p *sim.Proc, c *core.Client, io *transport.IO, o *outcome) {
		fut := transport.Submit(p, c, io)
		o.rang = p.Now()
		o.res = fut.Wait(p)
		o.done = p.Now()
		closed.Done()
	}
	r.e.Go("a", func(p *sim.Proc) {
		c := r.connect(t, p, 8)
		t0 = p.Now()
		r.e.Go("b", func(q *sim.Proc) {
			q.Sleep(bDelay)
			submit(q, c, &transport.IO{Offset: 1 << 20, Size: 4096}, &b)
		})
		submit(p, c, &transport.IO{Write: true, Offset: 0, Size: 128 << 10}, &a)
		closed.Wait(p)
		c.Close()
		c.WaitClosed(p)
	})
	if err := r.e.Run(); err != nil {
		t.Fatal(err)
	}
	if a.res.Err() != nil || b.res.Err() != nil {
		t.Fatalf("write: %v, read: %v", a.res.Err(), b.res.Err())
	}
	if want := t0.Add(bDelay + hp.SubmitCPU); b.rang != want {
		t.Errorf("B's doorbell returned at %v, want %v: its own submit CPU and nothing of A's fill", b.rang, want)
	}
	if want := t0.Add(fill + hp.SubmitCPU); a.rang != want {
		t.Errorf("A's doorbell returned at %v, want %v", a.rang, want)
	}
	if got := b.done.Add(-b.res.Latency); got != b.rang {
		t.Errorf("read published at %v, want %v (the end of B's own doorbell)", got, b.rang)
	}
	if got := a.done.Add(-a.res.Latency); got != a.rang {
		t.Errorf("write published at %v, want %v (the end of A's own doorbell)", got, a.rang)
	}
	if gotA, gotB := a.done.Sub(t0), b.done.Sub(t0); gotA != goldenInterleavedWrite || gotB != goldenInterleavedRead {
		t.Errorf("completions at +%v (write) and +%v (read), want +%v and +%v", gotA, gotB, goldenInterleavedWrite, goldenInterleavedRead)
	}
}

// Completion offsets of the schedule above at the parent commit.
const (
	goldenInterleavedWrite = 1171796 * time.Nanosecond
	goldenInterleavedRead  = 307423 * time.Nanosecond
)

// TestConnectDefaultsZeroTP pins that a connection without TP is one
// given model.DefaultTCPTransport(), as on the server: a 4 KiB write rides in-capsule (the target sends the response
// and nothing else — no R2T), and a 256 KiB write finishes at the same
// virtual time after the same number of messages either way.
func TestConnectDefaultsZeroTP(t *testing.T) {
	type mark struct {
		at         sim.Time
		toTgt, toH int64
	}
	run := func(tp model.TCPTransportParams) (small, large mark) {
		r := newRig(t, false, nil)
		r.e.Go("app", func(p *sim.Proc) {
			c := connect(t, p, r.link.A, session.ConnOptions{NQN: testNQN, QueueDepth: 8}, tp)
			write := func(size int) mark {
				a0, b0 := r.link.A.MsgsSent, r.link.B.MsgsSent
				if res := transport.Submit(p, c, &transport.IO{Write: true, Size: size}).Wait(p); res.Err() != nil {
					t.Fatalf("%d-byte write: %v", size, res.Err())
				}
				return mark{p.Now(), r.link.A.MsgsSent - a0, r.link.B.MsgsSent - b0}
			}
			small, large = write(4<<10), write(256<<10)
			c.Close()
			c.WaitClosed(p)
		})
		if err := r.e.Run(); err != nil {
			t.Fatal(err)
		}
		return small, large
	}
	small, large := run(model.TCPTransportParams{})
	wantSmall, wantLarge := run(model.DefaultTCPTransport())
	if small.toH != 1 {
		t.Errorf("4 KiB write drew %d target messages, want 1 (response only, no R2T)", small.toH)
	}
	if small != wantSmall || large != wantLarge {
		t.Errorf("TP-less connect: 4 KiB %+v, 256 KiB %+v; explicit default: %+v, %+v", small, large, wantSmall, wantLarge)
	}
}
