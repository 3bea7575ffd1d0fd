package cache

import (
	"bytes"
	"errors"
	"fmt"
	"testing"
	"time"

	"nvmeoaf/internal/bdev"
	"nvmeoaf/internal/model"
	"nvmeoaf/internal/sim"
	"nvmeoaf/internal/ssd"
)

// countingBdev wraps a device and counts submissions by op, optionally
// failing writes on demand (for flush-path loss tests).
type countingBdev struct {
	bdev.Device
	e          *sim.Engine
	reads      int
	writes     int
	flushes    int
	failWrites error
}

func (d *countingBdev) Submit(req *ssd.Request) *sim.Future[ssd.Result] {
	switch req.Op {
	case ssd.OpRead:
		d.reads++
	case ssd.OpWrite:
		d.writes++
		if d.failWrites != nil {
			fut := sim.NewFuture[ssd.Result](d.e)
			fut.Resolve(ssd.Result{Err: d.failWrites})
			return fut
		}
	case ssd.OpFlush:
		d.flushes++
	}
	return d.Device.Submit(req)
}

// rig builds an engine, a jitter-free backing SSD behind a counting
// wrapper, and a cache over it.
func rig(t *testing.T, retain bool, cfg Config) (*sim.Engine, *countingBdev, *Cache) {
	t.Helper()
	e := sim.NewEngine(7)
	params := model.DefaultSSD()
	params.JitterFrac = 0
	params.StallProb = 0
	backing := &countingBdev{
		Device: bdev.NewSimSSD(e, "nvme0", 64<<20, params, retain, 512),
		e:      e,
	}
	cfg.Retain = retain
	return e, backing, New(e, backing, cfg)
}

// run drives fn as a simulation process to completion.
func run(t *testing.T, e *sim.Engine, fn func(p *sim.Proc)) {
	t.Helper()
	e.Go("test", fn)
	if err := e.Run(); err != nil {
		t.Fatal(err)
	}
}

func read(p *sim.Proc, c *Cache, off int64, size int) ssd.Result {
	return c.Submit(&ssd.Request{Op: ssd.OpRead, Offset: off, Size: size}).Wait(p)
}

func write(p *sim.Proc, c *Cache, off int64, data []byte) ssd.Result {
	return c.Submit(&ssd.Request{Op: ssd.OpWrite, Offset: off, Size: len(data), Data: data}).Wait(p)
}

func TestReadHitSkipsBackingDevice(t *testing.T) {
	e, backing, c := rig(t, false, Config{Bytes: 1 << 20})
	run(t, e, func(p *sim.Proc) {
		if res := read(p, c, 0, 4096); res.Err != nil {
			t.Fatal(res.Err)
		}
		missReads := backing.reads
		t0 := p.Now()
		if res := read(p, c, 0, 4096); res.Err != nil {
			t.Fatal(res.Err)
		}
		if backing.reads != missReads {
			t.Errorf("hit went to the backing device (%d reads)", backing.reads)
		}
		if lat := p.Now().Sub(t0); lat != 0 {
			t.Errorf("hit charged device time: %v", lat)
		}
	})
	s := c.Stats()
	if s.Hits != 1 || s.Misses != 1 || s.Fills != 1 {
		t.Errorf("stats hits=%d misses=%d fills=%d, want 1/1/1", s.Hits, s.Misses, s.Fills)
	}
	if s.HitRate() != 0.5 {
		t.Errorf("hit rate %.2f, want 0.5", s.HitRate())
	}
}

func TestRetainedReadBackThroughCache(t *testing.T) {
	e, _, c := rig(t, true, Config{Bytes: 1 << 20})
	payload := bytes.Repeat([]byte{0xA7}, 8192)
	run(t, e, func(p *sim.Proc) {
		if res := write(p, c, 4096, payload); res.Err != nil {
			t.Fatal(res.Err)
		}
		for round := 0; round < 2; round++ { // miss then hit
			res := read(p, c, 4096, len(payload))
			if res.Err != nil {
				t.Fatal(res.Err)
			}
			if !bytes.Equal(res.Data, payload) {
				t.Fatalf("round %d: bytes diverged through the cache", round)
			}
		}
		// Partial-line slice of a resident span.
		res := read(p, c, 6144, 1024)
		if res.Err != nil {
			t.Fatal(res.Err)
		}
		if !bytes.Equal(res.Data, payload[2048:3072]) {
			t.Fatal("partial-line hit returned wrong slice")
		}
	})
	if s := c.Stats(); s.Hits == 0 {
		t.Errorf("no hits recorded: %+v", s)
	}
}

// TestReadIntoDestination: a read that brings its own Data gets the bytes
// written there, on a miss and on a (partial-line) hit alike; a
// wrong-length destination is rejected.
func TestReadIntoDestination(t *testing.T) {
	e, _, c := rig(t, true, Config{Bytes: 1 << 20})
	payload := make([]byte, 8192)
	for i := range payload {
		payload[i] = byte(i*7 + 1)
	}
	into := func(p *sim.Proc, off int64, size int) ([]byte, ssd.Result) {
		dst := bytes.Repeat([]byte{0xDB}, size)
		return dst, c.Submit(&ssd.Request{Op: ssd.OpRead, Offset: off, Size: size, Data: dst}).Wait(p)
	}
	run(t, e, func(p *sim.Proc) {
		if res := write(p, c, 4096, payload); res.Err != nil {
			t.Error(res.Err)
			return
		}
		// A miss, then a partial-line hit on the lines it left resident.
		for round, off := range []int64{4096, 6144} {
			want := payload
			if round == 1 {
				want = payload[2048:3072]
			}
			dst, res := into(p, off, len(want))
			if res.Err != nil || !bytes.Equal(dst, want) || &res.Data[0] != &dst[0] {
				t.Errorf("round %d: err %v, bytes right %v, Data aliases dst %v",
					round, res.Err, bytes.Equal(dst, want), len(res.Data) > 0 && &res.Data[0] == &dst[0])
				return
			}
		}
		if res := c.Submit(&ssd.Request{Op: ssd.OpRead, Offset: 0, Size: 4096, Data: make([]byte, 512)}).Wait(p); res.Err == nil {
			t.Error("wrong-length destination accepted")
		}
	})
	if s := c.Stats(); s.Misses != 1 || s.Hits != 1 {
		t.Errorf("stats hits=%d misses=%d, want 1/1", s.Hits, s.Misses)
	}
}

func TestEvictionKeepsServingCorrectBytes(t *testing.T) {
	// 16 lines of 4 KiB: a 64-line working set must evict.
	e, _, c := rig(t, true, Config{Bytes: 64 << 10, Shards: 1, Ways: 4})
	run(t, e, func(p *sim.Proc) {
		for i := 0; i < 64; i++ {
			data := bytes.Repeat([]byte{byte(i + 1)}, 4096)
			if res := write(p, c, int64(i)*4096, data); res.Err != nil {
				t.Fatal(res.Err)
			}
		}
		for i := 0; i < 64; i++ {
			res := read(p, c, int64(i)*4096, 4096)
			if res.Err != nil {
				t.Fatal(res.Err)
			}
			if res.Data[0] != byte(i+1) {
				t.Fatalf("line %d: got 0x%02x after eviction churn", i, res.Data[0])
			}
		}
	})
	if s := c.Stats(); s.Evictions == 0 {
		t.Errorf("64-line set over a 16-line cache must evict: %+v", s)
	}
}

func TestLargeReadsBypass(t *testing.T) {
	e, _, c := rig(t, false, Config{Bytes: 1 << 20, BypassBytes: 128 << 10})
	run(t, e, func(p *sim.Proc) {
		if res := read(p, c, 0, 256<<10); res.Err != nil {
			t.Fatal(res.Err)
		}
	})
	s := c.Stats()
	if s.Bypasses != 1 || s.Fills != 0 {
		t.Errorf("large read must bypass without filling: %+v", s)
	}
}

func TestSequentialScanBypassesOnlyWithHotSet(t *testing.T) {
	e, _, c := rig(t, false, Config{Bytes: 1 << 20, SeqBypassRun: 4})
	run(t, e, func(p *sim.Proc) {
		// Cold cache: a sequential sweep is admitted (nothing to protect).
		for i := 0; i < 16; i++ {
			read(p, c, int64(i)*4096, 4096)
		}
		if got := c.Stats().Bypasses; got != 0 {
			t.Fatalf("cold-cache scan bypassed %d reads", got)
		}
		// Establish a hot set (EWMA climbs past the protect threshold).
		for i := 0; i < 64; i++ {
			read(p, c, int64(i%4)*4096, 4096)
		}
		// Now the same sweep is classified as a scan and bypassed.
		before := c.Stats().Bypasses
		for i := 256; i < 272; i++ {
			read(p, c, int64(i)*4096, 4096)
		}
		if got := c.Stats().Bypasses; got <= before {
			t.Errorf("hot-set scan not bypassed (bypasses %d)", got)
		}
	})
}

func TestWriteBackDefersAndFlushBarrierDrains(t *testing.T) {
	e, backing, c := rig(t, true, Config{Bytes: 1 << 20, Mode: WriteBack})
	payload := bytes.Repeat([]byte{0x5C}, 4096)
	run(t, e, func(p *sim.Proc) {
		if res := write(p, c, 8192, payload); res.Err != nil {
			t.Fatal(res.Err)
		}
		if backing.writes != 0 {
			t.Fatalf("write-back hit the backing device (%d writes)", backing.writes)
		}
		if c.Stats().DirtyBytes == 0 {
			t.Fatal("absorbed write left no dirty bytes")
		}
		if res := c.Submit(&ssd.Request{Op: ssd.OpFlush}).Wait(p); res.Err != nil {
			t.Fatal(res.Err)
		}
		if backing.writes == 0 || backing.flushes == 0 {
			t.Fatalf("barrier did not reach the device: %d writes, %d flushes",
				backing.writes, backing.flushes)
		}
		if c.Stats().DirtyBytes != 0 {
			t.Fatalf("dirty bytes after barrier: %d", c.Stats().DirtyBytes)
		}
		// The backing device itself must now hold the bytes.
		res := backing.Device.Submit(&ssd.Request{Op: ssd.OpRead, Offset: 8192, Size: 4096}).Wait(p)
		if res.Err != nil || !bytes.Equal(res.Data, payload) {
			t.Fatal("flushed bytes did not reach the backing device")
		}
	})
	if s := c.Stats(); s.WriteBacks != 1 {
		t.Errorf("write-backs %d, want 1", s.WriteBacks)
	}
}

func TestWriteBackReadYourWrite(t *testing.T) {
	e, _, c := rig(t, true, Config{Bytes: 1 << 20, Mode: WriteBack, BypassBytes: 64 << 10})
	payload := bytes.Repeat([]byte{0xEE}, 4096)
	run(t, e, func(p *sim.Proc) {
		if res := write(p, c, 0, payload); res.Err != nil {
			t.Fatal(res.Err)
		}
		// Hit path sees the dirty line.
		res := read(p, c, 0, 4096)
		if res.Err != nil || !bytes.Equal(res.Data, payload) {
			t.Fatal("dirty line not visible to cached read")
		}
		// Bypassed (large) read must overlay unflushed dirty bytes too.
		res = read(p, c, 0, 128<<10)
		if res.Err != nil {
			t.Fatal(res.Err)
		}
		if !bytes.Equal(res.Data[:4096], payload) {
			t.Fatal("bypassed read lost unflushed write-back data")
		}
	})
}

func TestWriteBackThrottlesAtDirtyBound(t *testing.T) {
	// 64 KiB cache, dirty bound 25% = 4 lines: a burst must throttle.
	e, _, c := rig(t, false, Config{Bytes: 64 << 10, Mode: WriteBack, MaxDirtyFrac: 0.25})
	run(t, e, func(p *sim.Proc) {
		futs := make([]*sim.Future[ssd.Result], 0, 64)
		for i := 0; i < 64; i++ {
			futs = append(futs, c.Submit(&ssd.Request{Op: ssd.OpWrite, Offset: int64(i) * 4096, Size: 4096}))
		}
		for _, f := range futs {
			if res := f.Wait(p); res.Err != nil {
				t.Fatal(res.Err)
			}
		}
	})
	s := c.Stats()
	if s.Throttled == 0 || s.WriteThroughs == 0 {
		t.Errorf("burst past the dirty bound must degrade to write-through: %+v", s)
	}
	if s.DirtyBytes > int64(0.25*64<<10) {
		t.Errorf("dirty bytes %d exceed the bound", s.DirtyBytes)
	}
}

func TestBackgroundFlusherDrainsWithoutBarrier(t *testing.T) {
	e, backing, c := rig(t, false, Config{Bytes: 256 << 10, Mode: WriteBack, MaxDirtyFrac: 0.5})
	run(t, e, func(p *sim.Proc) {
		// Cross the kick threshold (half of hi-water) and let the engine run.
		for i := 0; i < 32; i++ {
			c.Submit(&ssd.Request{Op: ssd.OpWrite, Offset: int64(i) * 4096, Size: 4096}).Wait(p)
		}
	})
	// Engine drained: the flusher must have written dirt back on its own.
	if backing.writes == 0 {
		t.Fatal("background flusher never wrote back")
	}
}

func TestBackingErrorPropagatesWithoutPopulating(t *testing.T) {
	e := sim.NewEngine(3)
	params := model.DefaultSSD()
	params.JitterFrac = 0
	params.StallProb = 0
	injected := errors.New("injected media error")
	// Every submission fails.
	faulty := bdev.NewFaulty(e, bdev.NewSimSSD(e, "nvme0", 64<<20, params, false, 512), 1, injected)
	c := New(e, faulty, Config{Bytes: 1 << 20})
	run(t, e, func(p *sim.Proc) {
		res := read(p, c, 0, 4096)
		if !errors.Is(res.Err, injected) {
			t.Fatalf("err = %v, want injected error", res.Err)
		}
	})
	if s := c.Stats(); s.Fills != 0 {
		t.Errorf("failed fill populated the cache: %+v", s)
	}
}

func TestFlushWriteFailureSurfacesTypedLoss(t *testing.T) {
	e, backing, c := rig(t, true, Config{Bytes: 1 << 20, Mode: WriteBack})
	run(t, e, func(p *sim.Proc) {
		if res := write(p, c, 0, bytes.Repeat([]byte{1}, 4096)); res.Err != nil {
			t.Fatal(res.Err)
		}
		backing.failWrites = errors.New("device write fault")
		err := c.Flush(p)
		var loss *DirtyLossError
		if !errors.As(err, &loss) {
			t.Fatalf("flush error %v, want *DirtyLossError", err)
		}
		if loss.Lines != 1 || loss.Cause == nil {
			t.Fatalf("loss = %+v", loss)
		}
		// Reported once: the next barrier is clean.
		backing.failWrites = nil
		if err := c.Flush(p); err != nil {
			t.Fatalf("second barrier: %v", err)
		}
	})
	if s := c.Stats(); s.LostLines != 1 {
		t.Errorf("lost lines %d, want 1", s.LostLines)
	}
}

func TestLoseDirtyModelsCrash(t *testing.T) {
	e, _, c := rig(t, false, Config{Bytes: 1 << 20, Mode: WriteBack})
	run(t, e, func(p *sim.Proc) {
		for i := 0; i < 4; i++ {
			c.Submit(&ssd.Request{Op: ssd.OpWrite, Offset: int64(i) * 4096, Size: 4096}).Wait(p)
		}
		loss := c.LoseDirty()
		if loss == nil || loss.Lines != 4 {
			t.Fatalf("LoseDirty = %+v, want 4 lines", loss)
		}
		if c.LostDirty() == nil {
			t.Fatal("loss not sticky")
		}
		// The next barrier reports it as a typed error, then clears.
		var typed *DirtyLossError
		if err := c.Flush(p); !errors.As(err, &typed) {
			t.Fatalf("barrier after crash = %v, want *DirtyLossError", err)
		}
		if err := c.Flush(p); err != nil {
			t.Fatalf("loss reported twice: %v", err)
		}
	})
	if c.LoseDirty() != nil {
		t.Error("clean cache reported loss")
	}
}

func TestHitPathAllocationFree(t *testing.T) {
	e, _, c := rig(t, false, Config{Bytes: 1 << 20})
	run(t, e, func(p *sim.Proc) {
		read(p, c, 0, 4096) // fill
	})
	if got := testing.AllocsPerRun(200, func() {
		if !c.tryReadHit(0, 4096, nil) {
			t.Fatal("warm line missed")
		}
	}); got != 0 {
		t.Errorf("hit path allocates %.1f/op, want 0", got)
	}
}

// gateBdev forwards reads but parks writes while gated, so tests can
// control backing write completion order (and inject completion-time
// failures) to exercise flusher/write-through races.
type gateBdev struct {
	bdev.Device
	e    *sim.Engine
	gate bool
	held []heldWrite
}

type heldWrite struct {
	req *ssd.Request
	out *sim.Future[ssd.Result]
}

func (d *gateBdev) Submit(req *ssd.Request) *sim.Future[ssd.Result] {
	if d.gate && req.Op == ssd.OpWrite {
		out := sim.NewFuture[ssd.Result](d.e)
		d.held = append(d.held, heldWrite{req: req, out: out})
		return out
	}
	return d.Device.Submit(req)
}

// release completes the i-th held write: with err it fails at completion
// time; otherwise it forwards to the real device and mirrors its result.
func (d *gateBdev) release(i int, err error) {
	h := d.held[i]
	if err != nil {
		h.out.Resolve(ssd.Result{Err: err})
		return
	}
	d.Device.Submit(h.req).OnResolve(h.out.Resolve)
}

// gateRig builds a retained write-back cache over a write-gating device.
func gateRig(t *testing.T, cfg Config) (*sim.Engine, *gateBdev, *Cache) {
	t.Helper()
	e := sim.NewEngine(11)
	params := model.DefaultSSD()
	params.JitterFrac = 0
	params.StallProb = 0
	g := &gateBdev{Device: bdev.NewSimSSD(e, "nvme0", 64<<20, params, true, 512), e: e}
	cfg.Retain = true
	return e, g, New(e, g, cfg)
}

func TestMultiLineWriteSurvivesSetExhaustion(t *testing.T) {
	// Regression: committing a multi-line write whose lines hash to the
	// same set could consume the set's last clean way on the first line
	// and then index lines[-1] for the second. The commit must instead
	// degrade the whole write to write-through.
	e, backing, c := rig(t, true, Config{Bytes: 64 << 10, Shards: 1, Ways: 8, Mode: WriteBack, MaxDirtyFrac: 1})
	// Find an aligned line pair mapping to one set, plus seven more lines
	// in that set to dirty every other way.
	pair := int64(-1)
	for ln := int64(0); pair < 0; ln++ {
		if c.setBase(ln) == c.setBase(ln+1) {
			pair = ln
		}
	}
	var fills []int64
	for ln := int64(0); len(fills) < 7; ln++ {
		if ln != pair && ln != pair+1 && c.setBase(ln) == c.setBase(pair) {
			fills = append(fills, ln)
		}
	}
	payload := bytes.Repeat([]byte{0xC3}, 8192)
	run(t, e, func(p *sim.Proc) {
		for k, ln := range fills {
			data := bytes.Repeat([]byte{byte(k + 1)}, 4096)
			if res := write(p, c, ln*4096, data); res.Err != nil {
				t.Fatal(res.Err)
			}
		}
		if got := c.Stats().WriteBacks; got != 7 {
			t.Fatalf("absorbed %d of 7 set-filling writes", got)
		}
		// Both lines of this write map to the now 7/8-dirty set.
		if res := write(p, c, pair*4096, payload); res.Err != nil {
			t.Fatal(res.Err)
		}
		if backing.writes == 0 {
			t.Fatal("exhausted-set write never degraded to the backing device")
		}
		res := read(p, c, pair*4096, 8192)
		if res.Err != nil || !bytes.Equal(res.Data, payload) {
			t.Fatal("bytes diverged after degraded multi-line write")
		}
	})
	if s := c.Stats(); s.WriteThroughs == 0 {
		t.Errorf("set exhaustion must degrade to write-through: %+v", s)
	}
}

func TestWriteThroughOrdersBehindInflightFlush(t *testing.T) {
	// Regression: a write-through overlapping a line whose write-back is
	// in flight must not race it — the backing device applies data at
	// completion, so an unordered stale flush could land after the newer
	// write, leaving the device stale behind a clean cache line.
	e, gate, c := gateRig(t, Config{Bytes: 1 << 20, Mode: WriteBack})
	oldData := bytes.Repeat([]byte{0xAA}, 4096)
	newData := bytes.Repeat([]byte{0xBB}, 1024)
	run(t, e, func(p *sim.Proc) {
		if res := write(p, c, 0, oldData); res.Err != nil {
			t.Fatal(res.Err)
		}
		gate.gate = true
		flushFut := c.Submit(&ssd.Request{Op: ssd.OpFlush})
		p.Sleep(time.Microsecond) // barrier captures line 0 and parks on the gated write
		if len(gate.held) != 1 {
			t.Fatalf("barrier submitted %d backing writes, want 1 parked write-back", len(gate.held))
		}
		// Unaligned write-through to the captured line: it must be ordered
		// behind the in-flight write-back instead of racing it.
		wFut := c.Submit(&ssd.Request{Op: ssd.OpWrite, Offset: 0, Size: 1024, Data: newData})
		p.Sleep(time.Microsecond)
		if len(gate.held) != 1 {
			t.Fatal("write-through overtook the in-flight flush write-back")
		}
		if wFut.Resolved() {
			t.Fatal("write-through completed while ordered behind the flush")
		}
		gate.gate = false
		gate.release(0, nil)
		if res := wFut.Wait(p); res.Err != nil {
			t.Fatal(res.Err)
		}
		if res := flushFut.Wait(p); res.Err != nil {
			t.Fatal(res.Err)
		}
		// The backing device must hold the newer bytes.
		res := gate.Device.Submit(&ssd.Request{Op: ssd.OpRead, Offset: 0, Size: 4096}).Wait(p)
		if res.Err != nil {
			t.Fatal(res.Err)
		}
		if !bytes.Equal(res.Data[:1024], newData) || !bytes.Equal(res.Data[1024:], oldData[1024:]) {
			t.Fatal("stale flush write-back clobbered the newer write-through")
		}
		// And the cache must agree with it.
		cres := read(p, c, 0, 4096)
		if cres.Err != nil || !bytes.Equal(cres.Data[:1024], newData) {
			t.Fatal("cache diverged from backing after ordered write-through")
		}
	})
}

func TestCapturedLineRedirtiesWhenWriteThroughLandsUnder(t *testing.T) {
	// The reverse interleaving of the ordering test: a write-through is
	// already in flight when a flush batch captures the (re-dirtied) same
	// line. Whichever backing write lands last, completion of the
	// write-through must re-dirty the captured line so a final re-flush
	// converges the backing device to the cache's bytes.
	e, gate, c := gateRig(t, Config{Bytes: 1 << 20, Mode: WriteBack})
	wtData := bytes.Repeat([]byte{0xBB}, 1024)
	wbData := bytes.Repeat([]byte{0xCC}, 4096)
	run(t, e, func(p *sim.Proc) {
		gate.gate = true
		// Unaligned write-through to a non-resident line parks at the gate.
		wFut := c.Submit(&ssd.Request{Op: ssd.OpWrite, Offset: 0, Size: 1024, Data: wtData})
		p.Sleep(time.Microsecond)
		if len(gate.held) != 1 {
			t.Fatalf("held %d backing writes, want the parked write-through", len(gate.held))
		}
		// Newer absorbed write dirties the line; a barrier captures it.
		if res := write(p, c, 0, wbData); res.Err != nil {
			t.Fatal(res.Err)
		}
		flushFut := c.Submit(&ssd.Request{Op: ssd.OpFlush})
		p.Sleep(time.Microsecond)
		if len(gate.held) != 2 {
			t.Fatalf("held %d backing writes, want write-through + write-back", len(gate.held))
		}
		// The write-through completes while the write-back is in flight:
		// its completion must re-dirty the captured line.
		gate.release(0, nil)
		if res := wFut.Wait(p); res.Err != nil {
			t.Fatal(res.Err)
		}
		if c.Stats().DirtyBytes == 0 {
			t.Fatal("write-through landing under an in-flight write-back did not re-dirty the line")
		}
		// Let the stale write-back land last, then drain the re-flush.
		gate.gate = false
		gate.release(1, nil)
		if res := flushFut.Wait(p); res.Err != nil {
			t.Fatal(res.Err)
		}
		// Backing and cache must agree on the merged bytes.
		want := append(bytes.Repeat([]byte{0xBB}, 1024), bytes.Repeat([]byte{0xCC}, 3072)...)
		bres := gate.Device.Submit(&ssd.Request{Op: ssd.OpRead, Offset: 0, Size: 4096}).Wait(p)
		if bres.Err != nil || !bytes.Equal(bres.Data, want) {
			t.Fatal("backing diverged from cache after racing write-back")
		}
		cres := read(p, c, 0, 4096)
		if cres.Err != nil || !bytes.Equal(cres.Data, want) {
			t.Fatal("cache diverged after racing write-back")
		}
	})
}

func TestFlushFailureRetriesRedirtiedLine(t *testing.T) {
	// Regression: when a write-back fails while the line was re-dirtied
	// with newer acked data, the error path used to invalidate the line,
	// silently discarding the newer write. It must stay resident and
	// dirty so the flusher retries the newer bytes.
	e, gate, c := gateRig(t, Config{Bytes: 1 << 20, Mode: WriteBack})
	oldData := bytes.Repeat([]byte{0x11}, 4096)
	newData := bytes.Repeat([]byte{0x22}, 4096)
	run(t, e, func(p *sim.Proc) {
		if res := write(p, c, 0, oldData); res.Err != nil {
			t.Fatal(res.Err)
		}
		gate.gate = true
		flushFut := c.Submit(&ssd.Request{Op: ssd.OpFlush})
		p.Sleep(time.Microsecond) // barrier parks on the gated write-back
		if len(gate.held) != 1 {
			t.Fatalf("held %d backing writes, want 1", len(gate.held))
		}
		// Newer absorbed write to the same line while its write-back is in
		// flight, then fail that write-back at completion time.
		if res := write(p, c, 0, newData); res.Err != nil {
			t.Fatal(res.Err)
		}
		gate.gate = false
		gate.release(0, errors.New("transient device write fault"))
		if res := flushFut.Wait(p); res.Err != nil {
			t.Fatalf("barrier failed despite a retryable newer version: %v", res.Err)
		}
		// The retried flush carried the newer bytes.
		bres := gate.Device.Submit(&ssd.Request{Op: ssd.OpRead, Offset: 0, Size: 4096}).Wait(p)
		if bres.Err != nil || !bytes.Equal(bres.Data, newData) {
			t.Fatal("newer write lost after failed write-back")
		}
	})
	if s := c.Stats(); s.LostLines != 0 {
		t.Errorf("retryable failure recorded loss: %+v", s)
	}
	if c.LostDirty() != nil {
		t.Error("sticky loss armed despite successful retry")
	}
}

func TestModeParseAndGeometry(t *testing.T) {
	for _, tc := range []struct {
		in   string
		want Mode
	}{{"", WriteThrough}, {"wt", WriteThrough}, {"write-back", WriteBack}, {"wb", WriteBack}} {
		got, err := ParseMode(tc.in)
		if err != nil || got != tc.want {
			t.Errorf("ParseMode(%q) = %v, %v", tc.in, got, err)
		}
	}
	if _, err := ParseMode("bogus"); err == nil {
		t.Error("bogus mode accepted")
	}
	// Tiny capacity still yields a usable (clamped) geometry.
	e, _, c := rig(t, false, Config{Bytes: 4096, Shards: 16, Ways: 8})
	run(t, e, func(p *sim.Proc) {
		if res := read(p, c, 0, 4096); res.Err != nil {
			t.Fatal(res.Err)
		}
	})
	if c.Stats().Bytes < 4096 {
		t.Errorf("capacity %d below one line", c.Stats().Bytes)
	}
}

func TestStatsString(t *testing.T) {
	e, _, c := rig(t, false, Config{Bytes: 1 << 20, Mode: WriteBack})
	_ = e
	s := c.Stats()
	if s.Mode != "write-back" || s.Name == "" {
		t.Errorf("stats identity: %+v", s)
	}
	if fmt.Sprint(WriteThrough) != "write-through" {
		t.Error("mode string")
	}
}

// TestTenantDirtyPartitionThrottlesOnlyThatTenant: with a per-tenant
// dirty fraction configured, a listed tenant's write burst degrades to
// write-through once ITS slice of the absorb budget is full, while the
// shared watermark still has plenty of room — so another tenant's
// writes keep absorbing at cache speed.
func TestTenantDirtyPartitionThrottlesOnlyThatTenant(t *testing.T) {
	// 1 MiB cache, shared dirty watermark 0.5 (512 KiB); greedy gets
	// 1/32 of capacity = 32 KiB = 8 lines before write-through kicks in.
	e, _, c := rig(t, false, Config{
		Bytes: 1 << 20, Mode: WriteBack,
		TenantDirtyFrac: map[string]float64{"greedy": 1.0 / 32},
	})
	data := make([]byte, 4096)
	twrite := func(p *sim.Proc, tenant string, off int64) {
		res := c.Submit(&ssd.Request{
			Op: ssd.OpWrite, Offset: off, Size: len(data), Data: data, Tenant: tenant,
		}).Wait(p)
		if res.Err != nil {
			t.Fatal(res.Err)
		}
	}
	run(t, e, func(p *sim.Proc) {
		// Burst 40 distinct greedy lines (160 KiB) back to back: well
		// past the 32 KiB slice, well under the 512 KiB shared bound.
		for i := 0; i < 40; i++ {
			twrite(p, "greedy", int64(i)<<12)
			if got := c.TenantDirty("greedy"); got > 32<<10 {
				t.Fatalf("greedy dirty %d bytes exceeds its 32 KiB slice", got)
			}
		}
		throttled := c.Stats().Throttled
		if throttled == 0 {
			t.Fatal("160 KiB greedy burst never tripped the 32 KiB tenant slice")
		}
		// An unlisted tenant is bounded only by the shared watermark:
		// its writes still absorb, and absorbs don't count as throttles.
		before := c.Stats()
		twrite(p, "polite", 1<<21)
		after := c.Stats()
		if after.WriteBacks != before.WriteBacks+1 {
			t.Errorf("polite write did not absorb: write-backs %d -> %d",
				before.WriteBacks, after.WriteBacks)
		}
		if after.Throttled != throttled {
			t.Errorf("polite write throttled (%d -> %d) despite shared headroom",
				throttled, after.Throttled)
		}
		if got := c.TenantDirty("polite"); got != 4096 {
			t.Errorf("polite dirty attribution = %d, want one 4 KiB line", got)
		}
		// Flush drains everything; per-tenant accounting must return to
		// zero via the same clean path.
		if res := c.Submit(&ssd.Request{Op: ssd.OpFlush}).Wait(p); res.Err != nil {
			t.Fatal(res.Err)
		}
		if got := c.TenantDirty("greedy"); got != 0 {
			t.Errorf("greedy dirty = %d after flush, want 0", got)
		}
	})
}
