package vol

import (
	"bytes"
	"testing"

	"nvmeoaf/internal/bdev"
	"nvmeoaf/internal/blockfs"
	"nvmeoaf/internal/core"
	"nvmeoaf/internal/model"
	"nvmeoaf/internal/netsim"
	"nvmeoaf/internal/session"
	"nvmeoaf/internal/sim"
	"nvmeoaf/internal/target"
	"nvmeoaf/internal/transport"
)

const capacity = 512 << 20

func rig(t *testing.T, seed int64) (*sim.Engine, func(p *sim.Proc, cfg Config) *Connector) {
	t.Helper()
	e := sim.NewEngine(seed)
	tgt := target.New(e, model.DefaultHost())
	sub, err := tgt.AddSubsystem("nqn.vol")
	if err != nil {
		t.Fatal(err)
	}
	ssdParams := model.DefaultSSD()
	ssdParams.JitterFrac = 0
	ssdParams.StallProb = 0
	if _, err := sub.AddNamespace(1, bdev.NewSimSSD(e, "d", capacity, ssdParams, true, transport.BlockSize)); err != nil {
		t.Fatal(err)
	}
	fabric := core.NewFabric(e, model.DefaultSHM())
	srv := core.NewServer(e, tgt, core.ServerConfig{
		ServeOptions: session.ServeOptions{NQN: "nqn.vol"},
		Design:       core.DesignSHMZeroCopy, Fabric: fabric, TP: model.DefaultTCPTransport(),
	})
	link := netsim.NewLoopLink(e, model.Loopback())
	srv.Serve(link.B)
	region, _ := fabric.RegionFor(core.DesignSHMZeroCopy, "h", "h", 1<<20, 128<<10, 64)
	return e, func(p *sim.Proc, cfg Config) *Connector {
		c, err := core.Connect(p, link.A, core.ClientConfig{
			ConnOptions: session.ConnOptions{NQN: "nqn.vol", QueueDepth: 64},
			Design:      core.DesignSHMZeroCopy, Region: region, TP: model.DefaultTCPTransport(),
		})
		if err != nil {
			t.Fatal(err)
		}
		return New(blockfs.New(e, c, capacity), cfg)
	}
}

func TestSmallWritesAreSynchronous(t *testing.T) {
	e, open := rig(t, 1)
	e.Go("app", func(p *sim.Proc) {
		c := open(p, Config{})
		for i := 0; i < 4; i++ {
			if err := c.WriteAt(p, int64(i)<<20, nil, 1<<20); err != nil {
				t.Error(err)
			}
		}
		if c.SyncOps != 4 || c.DirectOps != 0 {
			t.Errorf("sync=%d direct=%d", c.SyncOps, c.DirectOps)
		}
	})
	if err := e.Run(); err != nil {
		t.Fatal(err)
	}
}

func TestLargeTransfersUsePipelinedPath(t *testing.T) {
	e, open := rig(t, 2)
	e.Go("app", func(p *sim.Proc) {
		c := open(p, Config{})
		if err := c.WriteAt(p, 0, nil, 32<<20); err != nil {
			t.Error(err)
		}
		if err := c.ReadAt(p, 0, nil, 32<<20); err != nil {
			t.Error(err)
		}
		if c.DirectOps != 2 || c.SyncOps != 0 {
			t.Errorf("sync=%d direct=%d", c.SyncOps, c.DirectOps)
		}
	})
	if err := e.Run(); err != nil {
		t.Fatal(err)
	}
}

func TestCoalescerMergesInterleavedStreams(t *testing.T) {
	e, open := rig(t, 3)
	e.Go("app", func(p *sim.Proc) {
		c := open(p, Config{Coalesce: true, CoalesceBytes: 8 << 20})
		// Interleave 8 sequential streams of 64KB writes (config-2-like).
		bases := make([]int64, 8)
		for i := range bases {
			bases[i] = int64(i) * (32 << 20)
		}
		offs := make([]int64, 8)
		for round := 0; round < 16; round++ {
			for i := range bases {
				if err := c.WriteAt(p, bases[i]+offs[i], nil, 64<<10); err != nil {
					t.Error(err)
				}
				offs[i] += 64 << 10
			}
		}
		if err := c.Flush(p); err != nil {
			t.Error(err)
		}
		if c.CoalescedWrites != 128 {
			t.Errorf("coalesced %d writes", c.CoalescedWrites)
		}
		// 8 streams x 16 x 64KB merged: flushes should be per-extent
		// pipelined transfers, far fewer than 128.
		if c.DirectOps == 0 || c.DirectOps > 16 {
			t.Errorf("direct ops %d", c.DirectOps)
		}
		if c.SyncOps != 0 {
			t.Errorf("sync ops %d", c.SyncOps)
		}
	})
	if err := e.Run(); err != nil {
		t.Fatal(err)
	}
}

func TestCoalescerPreservesRealData(t *testing.T) {
	e, open := rig(t, 4)
	e.Go("app", func(p *sim.Proc) {
		c := open(p, Config{Coalesce: true})
		var want []byte
		off := int64(0)
		for i := 0; i < 20; i++ {
			chunk := bytes.Repeat([]byte{byte(i + 1)}, 4096)
			if err := c.WriteAt(p, off, chunk, len(chunk)); err != nil {
				t.Error(err)
			}
			want = append(want, chunk...)
			off += int64(len(chunk))
		}
		got := make([]byte, len(want))
		if err := c.ReadAt(p, 0, got, len(got)); err != nil {
			t.Error(err)
		}
		if !bytes.Equal(got, want) {
			t.Error("coalesced data mismatch")
		}
	})
	if err := e.Run(); err != nil {
		t.Fatal(err)
	}
}

func TestReadSeesFlushedPendingWrites(t *testing.T) {
	e, open := rig(t, 5)
	e.Go("app", func(p *sim.Proc) {
		c := open(p, Config{Coalesce: true})
		data := []byte("pending-bytes-visible")
		if err := c.WriteAt(p, 512, data, len(data)); err != nil {
			t.Error(err)
		}
		got := make([]byte, len(data))
		if err := c.ReadAt(p, 512, got, len(got)); err != nil {
			t.Error(err)
		}
		if !bytes.Equal(got, data) {
			t.Error("read did not observe pending write")
		}
	})
	if err := e.Run(); err != nil {
		t.Fatal(err)
	}
}

func TestReadAheadServesSequentialStreams(t *testing.T) {
	e, open := rig(t, 6)
	e.Go("app", func(p *sim.Proc) {
		c := open(p, Config{Coalesce: true, ReadAheadBytes: 4 << 20})
		// Warm the file.
		if err := c.WriteAt(p, 0, nil, 64<<20); err != nil {
			t.Error(err)
		}
		c.Flush(p)
		// Two interleaved sequential readers.
		offA, offB := int64(0), int64(32<<20)
		for i := 0; i < 32; i++ {
			if err := c.ReadAt(p, offA, nil, 1<<20); err != nil {
				t.Error(err)
			}
			if err := c.ReadAt(p, offB, nil, 1<<20); err != nil {
				t.Error(err)
			}
			offA += 1 << 20
			offB += 1 << 20
		}
		// 64MB consumed via 4MB windows: ~16 prefetches, not 64.
		if c.Prefetches == 0 || c.Prefetches > 20 {
			t.Errorf("prefetches %d", c.Prefetches)
		}
	})
	if err := e.Run(); err != nil {
		t.Fatal(err)
	}
}

func TestCoalescedFasterThanSyncSmallWrites(t *testing.T) {
	elapsed := func(coalesce bool) sim.Time {
		e, open := rig(t, 7)
		var done sim.Time
		e.Go("app", func(p *sim.Proc) {
			c := open(p, Config{Coalesce: coalesce})
			off := int64(0)
			for i := 0; i < 256; i++ {
				if err := c.WriteAt(p, off, nil, 64<<10); err != nil {
					t.Error(err)
				}
				off += 64 << 10
			}
			c.Flush(p)
			done = p.Now()
		})
		if err := e.Run(); err != nil {
			t.Fatal(err)
		}
		return done
	}
	sync := elapsed(false)
	coal := elapsed(true)
	if coal*3 >= sync {
		t.Fatalf("coalesced (%v) should be >3x faster than sync (%v)", coal, sync)
	}
}
