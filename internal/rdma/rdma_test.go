package rdma

import (
	"bytes"
	"testing"
	"time"

	"nvmeoaf/internal/bdev"
	"nvmeoaf/internal/model"
	"nvmeoaf/internal/netsim"
	"nvmeoaf/internal/session"
	"nvmeoaf/internal/sim"
	"nvmeoaf/internal/target"
	"nvmeoaf/internal/telemetry"
	"nvmeoaf/internal/transport"
)

const testNQN = "nqn.2022-06.io.oaf:rdmasub"

type rig struct {
	e    *sim.Engine
	link *netsim.Link
	srv  *Server
}

func newRig(t *testing.T, retain bool, params model.RDMAParams) *rig {
	t.Helper()
	e := sim.NewEngine(2)
	tgt := target.New(e, model.DefaultHost())
	sub, err := tgt.AddSubsystem(testNQN)
	if err != nil {
		t.Fatal(err)
	}
	ssdParams := model.DefaultSSD()
	ssdParams.JitterFrac = 0
	ssdParams.StallProb = 0
	if _, err := sub.AddNamespace(1, bdev.NewSimSSD(e, "nvme0", 1<<30, ssdParams, retain, transport.BlockSize)); err != nil {
		t.Fatal(err)
	}
	srv := NewServer(e, tgt, ServerConfig{ServeOptions: session.ServeOptions{NQN: testNQN}})
	link := netsim.NewLoopLink(e, LinkParams(params))
	srv.Serve(link.B)
	return &rig{e: e, link: link, srv: srv}
}

func noRegParams() model.RDMAParams {
	p := model.RDMA56G()
	p.MemRegWarmOps = 0.001 // decays immediately
	p.MemRegFloorProb = 0
	return p
}

func TestReadWriteRoundTrip(t *testing.T) {
	r := newRig(t, true, noRegParams())
	payload := make([]byte, 128<<10)
	for i := range payload {
		payload[i] = byte(i % 251)
	}
	r.e.Go("app", func(p *sim.Proc) {
		c, err := Connect(p, r.link.A, ClientConfig{ConnOptions: session.ConnOptions{NQN: testNQN, QueueDepth: 16}, Params: noRegParams()})
		if err != nil {
			t.Fatal(err)
		}
		res := transport.Submit(p, c, &transport.IO{Write: true, Offset: 0, Size: len(payload), Data: payload}).Wait(p)
		if res.Err() != nil {
			t.Fatalf("write: %v", res.Err())
		}
		into := make([]byte, len(payload))
		res = transport.Submit(p, c, &transport.IO{Offset: 0, Size: len(payload), Data: into}).Wait(p)
		if res.Err() != nil {
			t.Fatalf("read: %v", res.Err())
		}
		if !bytes.Equal(res.Data, payload) {
			t.Error("payload mismatch over RDMA")
		}
		c.Close()
		c.WaitClosed(p)
	})
	if err := r.e.Run(); err != nil {
		t.Fatal(err)
	}
}

func TestNoR2TMessages(t *testing.T) {
	// RDMA direct data placement: a large write is exactly one client
	// message (capsule+payload), with one response back.
	r := newRig(t, false, noRegParams())
	r.e.Go("app", func(p *sim.Proc) {
		c, err := Connect(p, r.link.A, ClientConfig{ConnOptions: session.ConnOptions{NQN: testNQN, QueueDepth: 4}, Params: noRegParams()})
		if err != nil {
			t.Fatal(err)
		}
		res := transport.Submit(p, c, &transport.IO{Write: true, Offset: 0, Size: 512 << 10}).Wait(p)
		if res.Err() != nil {
			t.Fatal(res.Err())
		}
		c.Close()
		c.WaitClosed(p)
	})
	if err := r.e.Run(); err != nil {
		t.Fatal(err)
	}
	// ICReq + connect + write capsule + term = 4 client messages.
	if got := r.link.A.MsgsSent; got != 4 {
		t.Fatalf("client sent %d messages, want 4 (no R2T/data split)", got)
	}
	// ICResp + connect resp + resp = 3 server messages.
	if got := r.link.B.MsgsSent; got != 3 {
		t.Fatalf("server sent %d messages, want 3", got)
	}
}

func TestRDMAFasterThanTCPShape(t *testing.T) {
	// A 128KB read over RDMA must beat the modeled TCP stack per-byte
	// cost: comm time well under the ~330us a TCP stream would need.
	r := newRig(t, false, noRegParams())
	r.e.Go("app", func(p *sim.Proc) {
		c, err := Connect(p, r.link.A, ClientConfig{ConnOptions: session.ConnOptions{NQN: testNQN, QueueDepth: 4}, Params: noRegParams()})
		if err != nil {
			t.Fatal(err)
		}
		res := transport.Submit(p, c, &transport.IO{Offset: 0, Size: 128 << 10}).Wait(p)
		if res.Err() != nil {
			t.Fatal(res.Err())
		}
		if res.CommTime <= 0 || res.CommTime > 100e3 {
			t.Fatalf("rdma comm time %v out of expected range", res.CommTime)
		}
		c.Close()
		c.WaitClosed(p)
	})
	if err := r.e.Run(); err != nil {
		t.Fatal(err)
	}
}

func TestMemoryRegistrationMissesAreRareAndLarge(t *testing.T) {
	// Registration misses are rare events with multi-millisecond cost:
	// they inflate the tail without moving the mean much, and only the
	// affected command waits (the queue keeps flowing).
	params := model.RDMA56G()
	params.MemRegFloorProb = 0.01 // raise the floor so the test sees events
	r := newRig(t, false, params)
	tel := telemetry.New()
	var worst time.Duration
	r.e.Go("app", func(p *sim.Proc) {
		c, err := Connect(p, r.link.A, ClientConfig{ConnOptions: session.ConnOptions{NQN: testNQN, QueueDepth: 8, Telemetry: tel}, Params: params})
		if err != nil {
			t.Fatal(err)
		}
		for i := 0; i < 2000; i++ {
			res := transport.Submit(p, c, &transport.IO{Offset: 0, Size: 4096}).Wait(p)
			if res.Latency > worst {
				worst = res.Latency
			}
		}
		misses := tel.Counter(telemetry.CtrRDMARegMisses)
		if misses == 0 {
			t.Error("expected registration misses with raised floor")
		}
		if misses > 100 {
			t.Errorf("too many misses: %d", misses)
		}
		c.Close()
		c.WaitClosed(p)
	})
	if err := r.e.Run(); err != nil {
		t.Fatal(err)
	}
	if worst < params.MemRegCost {
		t.Fatalf("worst latency %v should include a registration stall (>= %v)", worst, params.MemRegCost)
	}
}

func TestIdentifyOverRDMA(t *testing.T) {
	r := newRig(t, false, noRegParams())
	r.e.Go("app", func(p *sim.Proc) {
		c, err := Connect(p, r.link.A, ClientConfig{ConnOptions: session.ConnOptions{NQN: testNQN, QueueDepth: 4}, Params: noRegParams()})
		if err != nil {
			t.Fatal(err)
		}
		buf := make([]byte, 4096)
		res := transport.Submit(p, c, &transport.IO{Admin: 0x06, CDW10: 1, Data: buf, Size: 4096}).Wait(p)
		if res.Err() != nil {
			t.Fatalf("identify: %v", res.Err())
		}
		if len(res.Data) != 4096 {
			t.Fatalf("identify page %d bytes", len(res.Data))
		}
		c.Close()
		c.WaitClosed(p)
	})
	if err := r.e.Run(); err != nil {
		t.Fatal(err)
	}
}

func TestQueueDepthPipelines(t *testing.T) {
	r := newRig(t, false, noRegParams())
	r.e.Go("app", func(p *sim.Proc) {
		c, err := Connect(p, r.link.A, ClientConfig{ConnOptions: session.ConnOptions{NQN: testNQN, QueueDepth: 8}, Params: noRegParams()})
		if err != nil {
			t.Fatal(err)
		}
		var futs []*sim.Future[*transport.Result]
		for i := 0; i < 64; i++ {
			futs = append(futs, transport.Submit(p, c, &transport.IO{Offset: int64(i) * 4096, Size: 4096}))
		}
		for _, f := range futs {
			if res := f.Wait(p); res.Err() != nil {
				t.Errorf("io: %v", res.Err())
			}
		}
		if c.Completed != 64 {
			t.Errorf("completed %d", c.Completed)
		}
		c.Close()
		c.WaitClosed(p)
	})
	if err := r.e.Run(); err != nil {
		t.Fatal(err)
	}
}
