package core

import (
	"bytes"
	"testing"
	"time"

	"nvmeoaf/internal/bdev"
	"nvmeoaf/internal/cache"
	"nvmeoaf/internal/model"
	"nvmeoaf/internal/netsim"
	"nvmeoaf/internal/nvme"
	"nvmeoaf/internal/session"
	"nvmeoaf/internal/sim"
	"nvmeoaf/internal/ssd"
	"nvmeoaf/internal/target"
	"nvmeoaf/internal/transport"
)

// newCachedRig mirrors newRig with a target-side block cache fronting the
// SSD: retained data end to end, the crash hook wired the way oaf and
// production targets wire it (Crash accounts unflushed dirty lines as
// lost), and the cache handle returned for stats and backing access.
func newCachedRig(t *testing.T, design Design, mode cache.Mode, mut func(*ServerConfig)) (*rig, *cache.Cache) {
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
	bd := bdev.NewSimSSD(e, "nvme0", 1<<30, ssdParams, true, transport.BlockSize)
	ca := cache.New(e, bd, cache.Config{Bytes: 8 << 20, Mode: mode, Retain: true})
	if _, err := sub.AddNamespace(1, ca); err != nil {
		t.Fatal(err)
	}
	fabric := NewFabric(e, model.DefaultSHM())
	cfg := ServerConfig{
		ServeOptions: session.ServeOptions{NQN: testNQN, OnCrash: func() { ca.LoseDirty() }},
		Design:       design, Fabric: fabric, TP: model.DefaultTCPTransport(),
	}
	if mut != nil {
		mut(&cfg)
	}
	srv := NewServer(e, tgt, cfg)
	link := netsim.NewLoopLink(e, model.Loopback())
	srv.Serve(link.B)
	region, _ := fabric.RegionFor(design, "host0", "host0", 1<<20, cfg.TP.ChunkSize, 32)
	return &rig{e: e, fabric: fabric, srv: srv, link: link, region: region}, ca
}

// TestPoisonedPoolRoundTripThroughCachedTarget composes the cache with
// the poison-on-free mempool check: payloads staged through the target's
// 0xDB-poisoned pool, served via the cache (small hot lines hit DRAM,
// 512 KiB streams bypass with the dirty overlay), must come back
// byte-identical on every design's data path.
func TestPoisonedPoolRoundTripThroughCachedTarget(t *testing.T) {
	for _, design := range []Design{DesignTCP, DesignSHMZeroCopy} {
		design := design
		t.Run(design.String(), func(t *testing.T) {
			r, ca := newCachedRig(t, design, cache.WriteBack, func(cfg *ServerConfig) {
				cfg.PoisonPool = true
			})
			if design == DesignTCP {
				r.region = nil
			}
			large := make([]byte, 512<<10)
			for i := range large {
				large[i] = byte(i*11 + 5)
			}
			small := make([]byte, 4096)
			for i := range small {
				small[i] = byte(i*7 + 3)
			}
			r.e.Go("app", func(p *sim.Proc) {
				c := r.connect(t, p, design, 8)
				for round := 0; round < 3; round++ {
					// Large stream: bypasses the cache in both directions.
					res := transport.Submit(p, c, &transport.IO{Write: true, Offset: 1 << 20, Size: len(large), Data: large}).Wait(p)
					if res.Err() != nil {
						t.Fatalf("round %d large write: %v", round, res.Err())
					}
					res = transport.Submit(p, c, &transport.IO{Offset: 1 << 20, Size: len(large), Data: make([]byte, len(large))}).Wait(p)
					if res.Err() != nil {
						t.Fatalf("round %d large read: %v", round, res.Err())
					}
					if !bytes.Equal(res.Data, large) {
						t.Fatalf("round %d: large payload corrupted through cached target", round)
					}
					// Small hot line: absorbed write-back, then served from DRAM.
					res = transport.Submit(p, c, &transport.IO{Write: true, Offset: 8192, Size: len(small), Data: small}).Wait(p)
					if res.Err() != nil {
						t.Fatalf("round %d small write: %v", round, res.Err())
					}
					res = transport.Submit(p, c, &transport.IO{Offset: 8192, Size: len(small), Data: make([]byte, len(small))}).Wait(p)
					if res.Err() != nil {
						t.Fatalf("round %d small read: %v", round, res.Err())
					}
					if !bytes.Equal(res.Data, small) {
						t.Fatalf("round %d: cached payload corrupted", round)
					}
				}
				// Drain dirt so nothing is lost when the rig is torn down.
				if res := transport.Submit(p, c, &transport.IO{Flush: true}).Wait(p); res.Err() != nil {
					t.Fatalf("flush: %v", res.Err())
				}
				c.Close()
				c.WaitClosed(p)
			})
			if err := r.e.Run(); err != nil {
				t.Fatal(err)
			}
			if r.srv.Pool().InUse() != 0 {
				t.Fatalf("pool leak: %d elements in use", r.srv.Pool().InUse())
			}
			st := ca.Stats()
			if st.Hits == 0 {
				t.Error("hot line never hit the cache")
			}
			if st.Bypasses == 0 {
				t.Error("512 KiB stream never bypassed the cache")
			}
			if st.DirtyBytes != 0 {
				t.Errorf("flush left %d dirty bytes", st.DirtyBytes)
			}
		})
	}
}

// TestFlushBarrierDrainsDirtyOverFabric pins the durability contract end
// to end: an NVMe flush issued over the adaptive fabric returns only
// after every write-back line reached the backing SSD — verified by
// reading the bytes straight off the backing device afterwards.
func TestFlushBarrierDrainsDirtyOverFabric(t *testing.T) {
	r, ca := newCachedRig(t, DesignSHMZeroCopy, cache.WriteBack, nil)
	payload := make([]byte, 4096)
	for i := range payload {
		payload[i] = byte(i*13 + 1)
	}
	r.e.Go("app", func(p *sim.Proc) {
		c := r.connect(t, p, DesignSHMZeroCopy, 8)
		for i := 0; i < 16; i++ {
			res := transport.Submit(p, c, &transport.IO{Write: true, Offset: int64(i) * 4096, Size: 4096, Data: payload}).Wait(p)
			if res.Err() != nil {
				t.Fatalf("write %d: %v", i, res.Err())
			}
		}
		if ca.Stats().DirtyBytes == 0 {
			t.Fatal("write-back absorbed nothing: dirty bytes is zero before the barrier")
		}
		if res := transport.Submit(p, c, &transport.IO{Flush: true}).Wait(p); res.Err() != nil {
			t.Fatalf("flush: %v", res.Err())
		}
		if got := ca.Stats().DirtyBytes; got != 0 {
			t.Errorf("flush returned with %d dirty bytes outstanding", got)
		}
		// The bytes must now be on the backing device itself, not just in
		// cache DRAM.
		back := ca.Backing().Submit(&ssd.Request{Op: ssd.OpRead, Offset: 0, Size: 4096}).Wait(p)
		if back.Err != nil {
			t.Fatalf("backing read: %v", back.Err)
		}
		if !bytes.Equal(back.Data, payload) {
			t.Error("backing device missing flushed bytes after the barrier")
		}
		c.Close()
		c.WaitClosed(p)
	})
	if err := r.e.Run(); err != nil {
		t.Fatal(err)
	}
}

// TestCrashLosesDirtyAndFlushReportsWriteFault is the crash-correctness
// contract over the fabric: a target crash with unflushed write-back
// lines must surface as a typed write fault on the host's next flush —
// never a silent success — and the condition reports exactly once.
func TestCrashLosesDirtyAndFlushReportsWriteFault(t *testing.T) {
	r, ca := newCachedRig(t, DesignTCP, cache.WriteBack, nil)
	r.region = nil
	payload := make([]byte, 4096)
	for i := range payload {
		payload[i] = byte(i)
	}
	r.e.Go("app", func(p *sim.Proc) {
		c, err := Connect(p, r.link.A, ClientConfig{
			ConnOptions: session.ConnOptions{NQN: testNQN, QueueDepth: 8, CommandTimeout: 1500 * time.Microsecond, MaxRetries: 10, RetryBackoff: 200 * time.Microsecond},
			Design:      DesignTCP, TP: model.DefaultTCPTransport(),
		})
		if err != nil {
			t.Fatal(err)
		}
		for i := 0; i < 8; i++ {
			res := transport.Submit(p, c, &transport.IO{Write: true, Offset: int64(i) * 4096, Size: 4096, Data: payload}).Wait(p)
			if res.Err() != nil {
				t.Fatalf("write %d: %v", i, res.Err())
			}
		}
		if ca.Stats().DirtyBytes == 0 {
			t.Fatal("no dirty lines to lose")
		}
		// Target process dies with the lines still dirty, then comes back.
		r.srv.Crash()
		r.srv.Restart()
		if ca.Stats().DirtyBytes != 0 {
			t.Fatal("crash hook did not drop dirty lines")
		}
		// The host's durability barrier must learn about the loss.
		res := transport.Submit(p, c, &transport.IO{Flush: true}).Wait(p)
		if res.Status != nvme.StatusWriteFault {
			t.Fatalf("flush after crash: status %v, want write fault", res.Status)
		}
		// Reported once: the next barrier on a clean cache succeeds.
		if res := transport.Submit(p, c, &transport.IO{Flush: true}).Wait(p); res.Err() != nil {
			t.Errorf("second flush: %v", res.Err())
		}
		c.Close()
		c.WaitClosed(p)
	})
	if err := r.e.Run(); err != nil {
		t.Fatal(err)
	}
	if ca.Stats().LostLines != 8 {
		t.Errorf("lost lines %d, want 8", ca.Stats().LostLines)
	}
}
