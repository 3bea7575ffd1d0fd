package core

import (
	"bytes"
	"testing"
	"time"

	"nvmeoaf/internal/bdev"
	"nvmeoaf/internal/model"
	"nvmeoaf/internal/netsim"
	"nvmeoaf/internal/session"
	"nvmeoaf/internal/shm"
	"nvmeoaf/internal/sim"
	"nvmeoaf/internal/target"
	"nvmeoaf/internal/transport"
)

const testNQN = "nqn.2022-06.io.oaf:afsub"

type rig struct {
	e      *sim.Engine
	fabric *Fabric
	srv    *Server
	link   *netsim.Link
	region *shm.Region
}

// newRig builds a co-located client/target pair: control link over the
// loopback TCP path, shared-memory region provisioned when the design
// uses one.
func newRig(t *testing.T, design Design, retain bool, mut func(*ServerConfig)) *rig {
	t.Helper()
	e := sim.NewEngine(5)
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
	fabric := NewFabric(e, model.DefaultSHM())
	cfg := ServerConfig{ServeOptions: session.ServeOptions{NQN: testNQN}, Design: design, Fabric: fabric, TP: model.DefaultTCPTransport()}
	if mut != nil {
		mut(&cfg)
	}
	srv := NewServer(e, tgt, cfg)
	link := netsim.NewLoopLink(e, model.Loopback())
	srv.Serve(link.B)
	region, _ := fabric.RegionFor(design, "host0", "host0", 1<<20, cfg.TP.ChunkSize, 32)
	return &rig{e: e, fabric: fabric, srv: srv, link: link, region: region}
}

func (r *rig) connect(t *testing.T, p *sim.Proc, design Design, qd int) *Client {
	c, err := Connect(p, r.link.A, ClientConfig{
		ConnOptions: session.ConnOptions{NQN: testNQN, QueueDepth: qd},
		Design:      design, Region: r.region, TP: model.DefaultTCPTransport(),
	})
	if err != nil {
		t.Fatal(err)
	}
	return c
}

func TestHandshakeNegotiatesSHM(t *testing.T) {
	r := newRig(t, DesignSHMZeroCopy, false, nil)
	r.e.Go("app", func(p *sim.Proc) {
		c := r.connect(t, p, DesignSHMZeroCopy, 8)
		if !c.SHMEnabled() {
			t.Error("co-located pair should negotiate shared memory")
		}
		if c.ICResp().SlotSize != uint32(r.region.SlotSize) {
			t.Errorf("slot size %d", c.ICResp().SlotSize)
		}
		c.Close()
		c.WaitClosed(p)
	})
	if err := r.e.Run(); err != nil {
		t.Fatal(err)
	}
	if r.srv.SHMConns != 1 {
		t.Fatalf("SHMConns = %d", r.srv.SHMConns)
	}
}

func TestRemotePairFallsBackToTCP(t *testing.T) {
	r := newRig(t, DesignSHMZeroCopy, false, nil)
	// Locality check fails for a remote pair: no region provisioned.
	r.region = nil
	r.e.Go("app", func(p *sim.Proc) {
		c := r.connect(t, p, DesignSHMZeroCopy, 8)
		if c.SHMEnabled() {
			t.Error("remote pair must not negotiate shared memory")
		}
		res := transport.Submit(p, c, &transport.IO{Write: true, Offset: 0, Size: 128 << 10}).Wait(p)
		if res.Err() != nil {
			t.Errorf("fallback write: %v", res.Err())
		}
		if c.SHMPayloadBytes != 0 {
			t.Error("payload must not use shared memory on fallback")
		}
		c.Close()
		c.WaitClosed(p)
	})
	if err := r.e.Run(); err != nil {
		t.Fatal(err)
	}
}

func TestLocalityProvisioning(t *testing.T) {
	e := sim.NewEngine(1)
	f := NewFabric(e, model.DefaultSHM())
	if r, err := f.Provision("hostA", "hostB", 4096, 4, shm.ModeLockFree, shm.ClaimRoundRobin); r != nil || err != nil {
		t.Fatal("cross-host provision must yield no region")
	}
	if r, err := f.Provision("", "", 4096, 4, shm.ModeLockFree, shm.ClaimRoundRobin); r != nil || err != nil {
		t.Fatal("empty host names must yield no region")
	}
	r1, err := f.Provision("hostA", "hostA", 4096, 4, shm.ModeLockFree, shm.ClaimRoundRobin)
	if err != nil || r1 == nil {
		t.Fatal("co-located provision failed")
	}
	r2, err := f.Provision("hostA", "hostA", 4096, 4, shm.ModeLockFree, shm.ClaimRoundRobin)
	if err != nil || r2 == nil || r1.Key == r2.Key {
		t.Fatal("tenants must get distinct regions")
	}
	if got, ok := f.Lookup(r1.Key); !ok || got != r1 {
		t.Fatal("lookup failed")
	}
	if _, ok := f.Lookup(9999); ok {
		t.Fatal("bogus key resolved")
	}
}

func TestRegionGeometryPerDesign(t *testing.T) {
	e := sim.NewEngine(1)
	f := NewFabric(e, model.DefaultSHM())
	if r, err := f.RegionFor(DesignTCP, "h", "h", 1<<20, 128<<10, 16); r != nil || err != nil {
		t.Fatal("TCP design needs no region")
	}
	whole, _ := f.RegionFor(DesignSHMZeroCopy, "h", "h", 1<<20, 128<<10, 16)
	if whole.SlotSize != 1<<20 || whole.SlotCount != 16 {
		t.Fatalf("whole-IO geometry %dx%d", whole.SlotCount, whole.SlotSize)
	}
	chunked, _ := f.RegionFor(DesignSHMBaseline, "h", "h", 1<<20, 128<<10, 16)
	if chunked.SlotSize != 128<<10 || chunked.SlotCount != 16*8 {
		t.Fatalf("chunked geometry %dx%d", chunked.SlotCount, chunked.SlotSize)
	}
}

func TestRealDataAllDesigns(t *testing.T) {
	for _, design := range []Design{DesignSHMBaseline, DesignSHMLockFree, DesignSHMFlowCtl, DesignSHMZeroCopy, DesignTCP} {
		design := design
		t.Run(design.String(), func(t *testing.T) {
			r := newRig(t, design, true, nil)
			if design == DesignTCP {
				r.region = nil
			}
			payload := make([]byte, 512<<10)
			for i := range payload {
				payload[i] = byte(i*13 + int(design))
			}
			r.e.Go("app", func(p *sim.Proc) {
				c := r.connect(t, p, design, 8)
				res := transport.Submit(p, c, &transport.IO{Write: true, Offset: 8192, Size: len(payload), Data: payload}).Wait(p)
				if res.Err() != nil {
					t.Errorf("write: %v", res.Err())
					return
				}
				into := make([]byte, len(payload))
				res = transport.Submit(p, c, &transport.IO{Offset: 8192, Size: len(payload), Data: into}).Wait(p)
				if res.Err() != nil {
					t.Errorf("read: %v", res.Err())
					return
				}
				if !bytes.Equal(res.Data, payload) {
					t.Errorf("%v: payload corrupted through fabric", design)
				}
				c.Close()
				c.WaitClosed(p)
			})
			if err := r.e.Run(); err != nil {
				t.Fatal(err)
			}
		})
	}
}

func TestSHMWriteSkipsR2T(t *testing.T) {
	// Shared-memory flow control: a large write is one control message
	// (capsule naming the slot) plus one response — no R2T, no data on
	// the wire.
	r := newRig(t, DesignSHMZeroCopy, false, nil)
	r.e.Go("app", func(p *sim.Proc) {
		c := r.connect(t, p, DesignSHMZeroCopy, 8)
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
	// ICReq + connect + capsule + term = 4 client messages.
	if got := r.link.A.MsgsSent; got != 4 {
		t.Fatalf("client sent %d messages, want 4", got)
	}
	// Payload must not cross the wire: client bytes are control-sized.
	if r.link.A.BytesSent > 2048 {
		t.Fatalf("client sent %d bytes over TCP; payload leaked onto the wire", r.link.A.BytesSent)
	}
}

func TestChunkedDesignSendsPerChunkNotifies(t *testing.T) {
	r := newRig(t, DesignSHMLockFree, false, nil)
	r.e.Go("app", func(p *sim.Proc) {
		c := r.connect(t, p, DesignSHMLockFree, 8)
		// 512KB write at 128KB chunks: capsule, R2T back, 4 notifies, resp.
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
	// ICReq + connect + capsule + 4 SHMNotify + term = 8 client messages.
	if got := r.link.A.MsgsSent; got != 8 {
		t.Fatalf("client sent %d messages, want 8 (per-chunk notifications)", got)
	}
}

func TestFlowCtlEliminatesControlMessages(t *testing.T) {
	msgs := func(design Design) int64 {
		r := newRig(t, design, false, nil)
		r.e.Go("app", func(p *sim.Proc) {
			c := r.connect(t, p, design, 8)
			for i := 0; i < 8; i++ {
				transport.Submit(p, c, &transport.IO{Write: true, Offset: int64(i) * (512 << 10), Size: 512 << 10}).Wait(p)
			}
			c.Close()
			c.WaitClosed(p)
		})
		if err := r.e.Run(); err != nil {
			t.Fatal(err)
		}
		return r.link.A.MsgsSent + r.link.B.MsgsSent
	}
	naive := msgs(DesignSHMLockFree)
	optimized := msgs(DesignSHMFlowCtl)
	if optimized >= naive {
		t.Fatalf("flow control should cut messages: %d vs %d", optimized, naive)
	}
}

func TestSlotCreditsBlockSubmit(t *testing.T) {
	// With 2 whole-IO slots, a third concurrent write submission blocks
	// in Submit until a slot frees: shared-memory flow control.
	r := newRig(t, DesignSHMZeroCopy, false, nil)
	e := sim.NewEngine(7)
	_ = e
	region, _ := r.fabric.Provision("h", "h", 1<<20, 2, shm.ModeLockFree, shm.ClaimRoundRobin)
	r.region = region
	var submitted []sim.Time
	r.e.Go("app", func(p *sim.Proc) {
		c := r.connect(t, p, DesignSHMZeroCopy, 8)
		var futs []*sim.Future[*transport.Result]
		for i := 0; i < 3; i++ {
			futs = append(futs, transport.Submit(p, c, &transport.IO{Write: true, Offset: int64(i) << 20, Size: 1 << 20, NoFill: true}))
			submitted = append(submitted, p.Now())
		}
		for _, f := range futs {
			f.Wait(p)
		}
		c.Close()
		c.WaitClosed(p)
	})
	if err := r.e.Run(); err != nil {
		t.Fatal(err)
	}
	if r.region.ClaimWait.Max() == 0 {
		t.Fatal("third submit should have waited for a slot credit")
	}
	if submitted[2] <= submitted[1] {
		t.Fatal("third submission should be delayed by flow control")
	}
}

func TestZeroCopyAvoidsClientCopyTime(t *testing.T) {
	// Same workload; the zero-copy design must finish faster than the
	// copying design because the client-side CopyIn disappears.
	elapsed := func(design Design) sim.Time {
		r := newRig(t, design, false, nil)
		var done sim.Time
		r.e.Go("app", func(p *sim.Proc) {
			c := r.connect(t, p, design, 16)
			var futs []*sim.Future[*transport.Result]
			for i := 0; i < 32; i++ {
				futs = append(futs, transport.Submit(p, c, &transport.IO{Write: true, Offset: int64(i) * (512 << 10), Size: 512 << 10}))
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
		return done
	}
	copying := elapsed(DesignSHMFlowCtl)
	zero := elapsed(DesignSHMZeroCopy)
	if zero >= copying {
		t.Fatalf("zero-copy (%v) should beat copying design (%v)", zero, copying)
	}
}

func TestLockedDesignSlowerThanLockFree(t *testing.T) {
	elapsed := func(design Design) sim.Time {
		r := newRig(t, design, false, nil)
		var done sim.Time
		r.e.Go("app", func(p *sim.Proc) {
			c := r.connect(t, p, design, 16)
			var futs []*sim.Future[*transport.Result]
			for i := 0; i < 32; i++ {
				futs = append(futs, transport.Submit(p, c, &transport.IO{Offset: int64(i) * (512 << 10), Size: 512 << 10}))
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
		return done
	}
	locked := elapsed(DesignSHMBaseline)
	lockfree := elapsed(DesignSHMLockFree)
	if locked <= lockfree {
		t.Fatalf("locked design (%v) should be slower than lock-free (%v)", locked, lockfree)
	}
}

func TestSHMFasterThanTCPIntraNode(t *testing.T) {
	elapsed := func(design Design, region bool) sim.Time {
		r := newRig(t, design, false, nil)
		if !region {
			r.region = nil
		}
		var done sim.Time
		r.e.Go("app", func(p *sim.Proc) {
			c := r.connect(t, p, design, 32)
			var futs []*sim.Future[*transport.Result]
			for i := 0; i < 64; i++ {
				futs = append(futs, transport.Submit(p, c, &transport.IO{Offset: int64(i) * (512 << 10), Size: 512 << 10}))
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
		return done
	}
	shmTime := elapsed(DesignSHMZeroCopy, true)
	tcpTime := elapsed(DesignSHMZeroCopy, false)
	if shmTime >= tcpTime {
		t.Fatalf("shared memory (%v) should beat loopback TCP (%v)", shmTime, tcpTime)
	}
}

func TestNoSlotLeaksAfterWorkload(t *testing.T) {
	for _, design := range []Design{DesignSHMBaseline, DesignSHMLockFree, DesignSHMFlowCtl, DesignSHMZeroCopy} {
		r := newRig(t, design, false, nil)
		r.e.Go("app", func(p *sim.Proc) {
			c := r.connect(t, p, design, 8)
			var futs []*sim.Future[*transport.Result]
			for i := 0; i < 20; i++ {
				futs = append(futs, transport.Submit(p, c, &transport.IO{Write: i%2 == 0, Offset: int64(i) * (256 << 10), Size: 256 << 10}))
			}
			for _, f := range futs {
				f.Wait(p)
			}
			c.Close()
			c.WaitClosed(p)
		})
		if err := r.e.Run(); err != nil {
			t.Fatalf("%v: %v", design, err)
		}
		if h := r.region.Busy(shm.H2C); h != 0 {
			t.Fatalf("%v: %d H2C slots leaked", design, h)
		}
		if h := r.region.Busy(shm.C2H); h != 0 {
			t.Fatalf("%v: %d C2H slots leaked", design, h)
		}
		if r.srv.Pool().InUse() != 0 {
			t.Fatalf("%v: %d pool buffers leaked", design, r.srv.Pool().InUse())
		}
	}
}

func TestMixedReadWriteWorkload(t *testing.T) {
	r := newRig(t, DesignSHMZeroCopy, false, nil)
	r.e.Go("app", func(p *sim.Proc) {
		c := r.connect(t, p, DesignSHMZeroCopy, 16)
		rng := r.e.Rand("mix")
		var futs []*sim.Future[*transport.Result]
		for i := 0; i < 200; i++ {
			futs = append(futs, transport.Submit(p, c, &transport.IO{
				Write:  rng.Float64() < 0.3,
				Offset: int64(rng.Intn(1000)) * 4096,
				Size:   4096 * (1 + rng.Intn(32)),
			}))
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
}

func TestBreakdownAddsUp(t *testing.T) {
	r := newRig(t, DesignSHMZeroCopy, false, nil)
	r.e.Go("app", func(p *sim.Proc) {
		c := r.connect(t, p, DesignSHMZeroCopy, 4)
		res := transport.Submit(p, c, &transport.IO{Offset: 0, Size: 128 << 10}).Wait(p)
		if res.Err() != nil {
			t.Fatal(res.Err())
		}
		if res.IOTime <= 0 {
			t.Error("missing device time")
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

func TestIdentifyOverAF(t *testing.T) {
	r := newRig(t, DesignSHMZeroCopy, false, nil)
	r.e.Go("app", func(p *sim.Proc) {
		c := r.connect(t, p, DesignSHMZeroCopy, 4)
		buf := make([]byte, 4096)
		res := transport.Submit(p, c, &transport.IO{Admin: 0x06, CDW10: 1, Data: buf, Size: 4096}).Wait(p)
		if res.Err() != nil {
			t.Fatalf("identify: %v", res.Err())
		}
		c.Close()
		c.WaitClosed(p)
	})
	if err := r.e.Run(); err != nil {
		t.Fatal(err)
	}
}

func TestBusyPollOnAF(t *testing.T) {
	r := newRig(t, DesignSHMZeroCopy, false, func(cfg *ServerConfig) {
		cfg.TP.BusyPoll = 50 * time.Microsecond
	})
	r.e.Go("app", func(p *sim.Proc) {
		c, err := Connect(p, r.link.A, ClientConfig{
			ConnOptions: session.ConnOptions{NQN: testNQN, QueueDepth: 8},
			Design:      DesignSHMZeroCopy, Region: r.region,
			TP: func() model.TCPTransportParams {
				tp := model.DefaultTCPTransport()
				tp.BusyPoll = 50 * time.Microsecond
				return tp
			}(),
		})
		if err != nil {
			t.Fatal(err)
		}
		for i := 0; i < 10; i++ {
			if res := transport.Submit(p, c, &transport.IO{Offset: 0, Size: 4096}).Wait(p); res.Err() != nil {
				t.Fatal(res.Err())
			}
		}
		c.Close()
		c.WaitClosed(p)
	})
	if err := r.e.Run(); err != nil {
		t.Fatal(err)
	}
}

func TestEncryptedChannelRealData(t *testing.T) {
	// §6 extension: the shared-memory channel enciphered per tenant.
	for _, design := range []Design{DesignSHMLockFree, DesignSHMZeroCopy} {
		design := design
		t.Run(design.String(), func(t *testing.T) {
			r := newRig(t, design, true, nil)
			r.region.EnableEncryption(0xFEED, 1.5e9)
			payload := make([]byte, 256<<10)
			for i := range payload {
				payload[i] = byte(i * 31)
			}
			r.e.Go("app", func(p *sim.Proc) {
				c := r.connect(t, p, design, 8)
				res := transport.Submit(p, c, &transport.IO{Write: true, Offset: 0, Size: len(payload), Data: payload}).Wait(p)
				if res.Err() != nil {
					t.Errorf("write: %v", res.Err())
					return
				}
				into := make([]byte, len(payload))
				res = transport.Submit(p, c, &transport.IO{Offset: 0, Size: len(payload), Data: into}).Wait(p)
				if res.Err() != nil {
					t.Errorf("read: %v", res.Err())
					return
				}
				if !bytes.Equal(res.Data, payload) {
					t.Error("payload corrupted through encrypted channel")
				}
				c.Close()
				c.WaitClosed(p)
			})
			if err := r.e.Run(); err != nil {
				t.Fatal(err)
			}
		})
	}
}

func TestEncryptionCostsThroughput(t *testing.T) {
	elapsed := func(encrypted bool) sim.Time {
		r := newRig(t, DesignSHMZeroCopy, false, nil)
		if encrypted {
			r.region.EnableEncryption(0xFEED, 1e9)
		}
		var done sim.Time
		r.e.Go("app", func(p *sim.Proc) {
			c := r.connect(t, p, DesignSHMZeroCopy, 16)
			var futs []*sim.Future[*transport.Result]
			for i := 0; i < 32; i++ {
				futs = append(futs, transport.Submit(p, c, &transport.IO{Write: true, Offset: int64(i) * (512 << 10), Size: 512 << 10, NoFill: true}))
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
		return done
	}
	plain := elapsed(false)
	enc := elapsed(true)
	if enc <= plain {
		t.Fatalf("encrypted run (%v) should be slower than plaintext (%v)", enc, plain)
	}
}
