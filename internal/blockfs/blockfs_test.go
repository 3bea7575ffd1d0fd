package blockfs

import (
	"bytes"
	"testing"
	"testing/quick"

	"nvmeoaf/internal/bdev"
	"nvmeoaf/internal/core"
	"nvmeoaf/internal/model"
	"nvmeoaf/internal/netsim"
	"nvmeoaf/internal/session"
	"nvmeoaf/internal/sim"
	"nvmeoaf/internal/target"
	"nvmeoaf/internal/transport"
)

// rig builds a file over an oAF queue with a real-data SSD.
func rig(t *testing.T, seed int64) (*sim.Engine, func(p *sim.Proc) *File) {
	t.Helper()
	e := sim.NewEngine(seed)
	tgt := target.New(e, model.DefaultHost())
	sub, err := tgt.AddSubsystem("nqn.test")
	if err != nil {
		t.Fatal(err)
	}
	ssdParams := model.DefaultSSD()
	ssdParams.JitterFrac = 0
	ssdParams.StallProb = 0
	const capacity = 256 << 20
	if _, err := sub.AddNamespace(1, bdev.NewSimSSD(e, "d", capacity, ssdParams, true, transport.BlockSize)); err != nil {
		t.Fatal(err)
	}
	fabric := core.NewFabric(e, model.DefaultSHM())
	srv := core.NewServer(e, tgt, core.ServerConfig{
		ServeOptions: session.ServeOptions{NQN: "nqn.test"},
		Design:       core.DesignSHMZeroCopy, Fabric: fabric, TP: model.DefaultTCPTransport(),
	})
	link := netsim.NewLoopLink(e, model.Loopback())
	srv.Serve(link.B)
	region, _ := fabric.RegionFor(core.DesignSHMZeroCopy, "h", "h", 1<<20, 128<<10, 32)
	return e, func(p *sim.Proc) *File {
		c, err := core.Connect(p, link.A, core.ClientConfig{
			ConnOptions: session.ConnOptions{NQN: "nqn.test", QueueDepth: 32},
			Design:      core.DesignSHMZeroCopy, Region: region, TP: model.DefaultTCPTransport(),
		})
		if err != nil {
			t.Fatal(err)
		}
		return New(e, c, capacity)
	}
}

func TestAlignedRoundTrip(t *testing.T) {
	e, open := rig(t, 1)
	e.Go("app", func(p *sim.Proc) {
		f := open(p)
		data := bytes.Repeat([]byte{0xA7}, 8192)
		if err := f.WriteAt(p, 4096, data, len(data)); err != nil {
			t.Error(err)
		}
		got := make([]byte, 8192)
		if err := f.ReadAt(p, 4096, got, len(got)); err != nil {
			t.Error(err)
		}
		if !bytes.Equal(got, data) {
			t.Error("aligned round trip mismatch")
		}
		if f.RMWs != 0 {
			t.Errorf("aligned I/O caused %d RMWs", f.RMWs)
		}
	})
	if err := e.Run(); err != nil {
		t.Fatal(err)
	}
}

func TestUnalignedRMW(t *testing.T) {
	e, open := rig(t, 2)
	e.Go("app", func(p *sim.Proc) {
		f := open(p)
		// Surrounding data must survive an unaligned overwrite.
		base := bytes.Repeat([]byte{0x11}, 2048)
		if err := f.WriteAt(p, 0, base, len(base)); err != nil {
			t.Error(err)
		}
		patch := []byte("unaligned-patch")
		if err := f.WriteAt(p, 100, patch, len(patch)); err != nil {
			t.Error(err)
		}
		if f.RMWs == 0 {
			t.Error("unaligned write should RMW")
		}
		got := make([]byte, 2048)
		if err := f.ReadAt(p, 0, got, len(got)); err != nil {
			t.Error(err)
		}
		want := append([]byte(nil), base...)
		copy(want[100:], patch)
		if !bytes.Equal(got, want) {
			t.Error("RMW corrupted surrounding bytes")
		}
		// Unaligned read.
		sub := make([]byte, 20)
		if err := f.ReadAt(p, 95, sub, 20); err != nil {
			t.Error(err)
		}
		if !bytes.Equal(sub, want[95:115]) {
			t.Error("unaligned read mismatch")
		}
	})
	if err := e.Run(); err != nil {
		t.Fatal(err)
	}
}

func TestRangeValidation(t *testing.T) {
	e, open := rig(t, 3)
	e.Go("app", func(p *sim.Proc) {
		f := open(p)
		if err := f.WriteAt(p, -1, nil, 10); err == nil {
			t.Error("negative offset accepted")
		}
		if err := f.ReadAt(p, f.Size-4, nil, 8); err == nil {
			t.Error("read past EOF accepted")
		}
		if err := f.Stream(p, true, 0, nil, 100, 1<<20, 4); err == nil {
			t.Error("unaligned stream accepted")
		}
		if err := f.WriteAt(p, 0, nil, 0); err != nil {
			t.Error("zero-size write should be a no-op")
		}
	})
	if err := e.Run(); err != nil {
		t.Fatal(err)
	}
}

func TestStreamFasterThanSync(t *testing.T) {
	e, open := rig(t, 4)
	e.Go("app", func(p *sim.Proc) {
		f := open(p)
		const size = 32 << 20
		t0 := p.Now()
		if err := f.Stream(p, true, 0, nil, size, 1<<20, 16); err != nil {
			t.Error(err)
		}
		streamed := p.Now().Sub(t0)
		t0 = p.Now()
		for off := int64(0); off < size; off += 1 << 20 {
			if err := f.WriteAt(p, off, nil, 1<<20); err != nil {
				t.Error(err)
			}
		}
		synced := p.Now().Sub(t0)
		if streamed*2 >= synced {
			t.Errorf("pipelined stream (%v) should be much faster than sync loop (%v)", streamed, synced)
		}
	})
	if err := e.Run(); err != nil {
		t.Fatal(err)
	}
}

func TestStreamRealData(t *testing.T) {
	e, open := rig(t, 5)
	e.Go("app", func(p *sim.Proc) {
		f := open(p)
		data := make([]byte, 4<<20)
		for i := range data {
			data[i] = byte(i * 31)
		}
		if err := f.Stream(p, true, 1<<20, data, len(data), 1<<20, 8); err != nil {
			t.Error(err)
		}
		got := make([]byte, len(data))
		if err := f.Stream(p, false, 1<<20, got, len(got), 1<<20, 8); err != nil {
			t.Error(err)
		}
		if !bytes.Equal(got, data) {
			t.Error("streamed data mismatch")
		}
	})
	if err := e.Run(); err != nil {
		t.Fatal(err)
	}
}

func TestWriteReadProperty(t *testing.T) {
	// Property: arbitrary write sequences behave like a flat byte array.
	type op struct {
		Off  uint32
		Data []byte
	}
	f := func(ops []op) bool {
		const space = 1 << 20
		e, open := rig(t, 99)
		ref := make([]byte, space)
		ok := true
		e.Go("prop", func(p *sim.Proc) {
			file := open(p)
			for _, o := range ops {
				off := int64(o.Off % (space / 2))
				data := o.Data
				if len(data) == 0 {
					continue
				}
				if len(data) > 64<<10 {
					data = data[:64<<10]
				}
				if err := file.WriteAt(p, off, data, len(data)); err != nil {
					ok = false
					return
				}
				copy(ref[off:], data)
			}
			got := make([]byte, space)
			if err := file.ReadAt(p, 0, got, space); err != nil {
				ok = false
				return
			}
			ok = bytes.Equal(got, ref)
		})
		if err := e.Run(); err != nil {
			return false
		}
		return ok
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 10}); err != nil {
		t.Fatal(err)
	}
}
