package ssd

import (
	"bytes"
	"testing"
	"testing/quick"
	"time"

	"nvmeoaf/internal/model"
	"nvmeoaf/internal/sim"
)

// calmParams returns deterministic SSD parameters (no jitter, no stalls).
func calmParams() model.SSDParams {
	p := model.DefaultSSD()
	p.JitterFrac = 0
	p.StallProb = 0
	return p
}

func TestSingleReadLatency(t *testing.T) {
	e := sim.NewEngine(1)
	d := New(e, "nvme0", 1<<30, calmParams(), false)
	var done sim.Time
	e.Go("io", func(p *sim.Proc) {
		res := d.Execute(p, &Request{Op: OpRead, Offset: 0, Size: 4096})
		if res.Err != nil {
			t.Error(res.Err)
		}
		done = p.Now()
		d.Close()
	})
	if err := e.Run(); err != nil {
		t.Fatal(err)
	}
	// 68us setup + 4096/320e6 s = 68 + 12.8 = 80.8us.
	want := calmParams().ReadSetup + time.Duration(4096.0/calmParams().ChannelReadBytesPerSec*1e9)
	if got := done.Sub(0); got != want {
		t.Fatalf("read latency %v, want %v", got, want)
	}
}

func TestWriteFasterThanRead(t *testing.T) {
	e := sim.NewEngine(1)
	d := New(e, "nvme0", 1<<30, calmParams(), false)
	var readLat, writeLat time.Duration
	e.Go("io", func(p *sim.Proc) {
		t0 := p.Now()
		d.Execute(p, &Request{Op: OpRead, Offset: 0, Size: 4096})
		readLat = p.Now().Sub(t0)
		t0 = p.Now()
		d.Execute(p, &Request{Op: OpWrite, Offset: 0, Size: 4096})
		writeLat = p.Now().Sub(t0)
		d.Close()
	})
	if err := e.Run(); err != nil {
		t.Fatal(err)
	}
	if writeLat >= readLat {
		t.Fatalf("write %v should be faster than read %v (write cache)", writeLat, readLat)
	}
}

func TestChannelParallelism(t *testing.T) {
	// Eight concurrent 4KB reads on an 8-channel device should finish in
	// one service time; sixteen should take two.
	for _, tc := range []struct{ n, waves int }{{8, 1}, {16, 2}} {
		e := sim.NewEngine(1)
		d := New(e, "nvme0", 1<<30, calmParams(), false)
		wg := sim.NewWaitGroup(e)
		wg.Add(tc.n)
		var done sim.Time
		for i := 0; i < tc.n; i++ {
			off := int64(i) * 4096
			e.Go("io", func(p *sim.Proc) {
				d.Execute(p, &Request{Op: OpRead, Offset: off, Size: 4096})
				wg.Done()
			})
		}
		e.Go("waiter", func(p *sim.Proc) {
			wg.Wait(p)
			done = p.Now()
			d.Close()
		})
		if err := e.Run(); err != nil {
			t.Fatal(err)
		}
		svc := calmParams().ReadSetup + time.Duration(4096.0/calmParams().ChannelReadBytesPerSec*1e9)
		want := sim.Time(time.Duration(tc.waves) * svc)
		if done != want {
			t.Fatalf("n=%d: finished at %v, want %v", tc.n, done, want)
		}
	}
}

func TestDeviceBandwidthCeiling(t *testing.T) {
	// Deep-queue 128KB reads should saturate near channels x channelBW =
	// 2.56 GB/s.
	e := sim.NewEngine(1)
	p := calmParams()
	d := New(e, "nvme0", 8<<30, p, false)
	const n = 400
	wg := sim.NewWaitGroup(e)
	wg.Add(n)
	var done sim.Time
	e.Go("sub", func(pr *sim.Proc) {
		for i := 0; i < n; i++ {
			fut := d.Submit(&Request{Op: OpRead, Offset: int64(i) * (128 << 10), Size: 128 << 10})
			e.Go("waiter", func(w *sim.Proc) {
				fut.Wait(w)
				wg.Done()
			})
		}
	})
	e.Go("join", func(pr *sim.Proc) {
		wg.Wait(pr)
		done = pr.Now()
		d.Close()
	})
	if err := e.Run(); err != nil {
		t.Fatal(err)
	}
	gbps := float64(n*(128<<10)) / done.Seconds() / 1e9
	// Setup costs reduce it below 2.56; expect within 15%.
	if gbps < 2.1 || gbps > 2.6 {
		t.Fatalf("read bandwidth %.2f GB/s, want ~2.2-2.5", gbps)
	}
}

func TestDataRoundTrip(t *testing.T) {
	e := sim.NewEngine(1)
	d := New(e, "nvme0", 1<<30, calmParams(), true)
	payload := make([]byte, 300_000)
	for i := range payload {
		payload[i] = byte(i * 31)
	}
	e.Go("io", func(p *sim.Proc) {
		// Unaligned offset spanning multiple pages.
		res := d.Execute(p, &Request{Op: OpWrite, Offset: 12345, Size: len(payload), Data: payload})
		if res.Err != nil {
			t.Error(res.Err)
		}
		got := d.Execute(p, &Request{Op: OpRead, Offset: 12345, Size: len(payload)})
		if !bytes.Equal(got.Data, payload) {
			t.Error("read data mismatch")
		}
		// Unwritten range reads as zeros.
		z := d.Execute(p, &Request{Op: OpRead, Offset: 900_000_000, Size: 64})
		for _, b := range z.Data {
			if b != 0 {
				t.Error("unwritten range not zero")
				break
			}
		}
		d.Close()
	})
	if err := e.Run(); err != nil {
		t.Fatal(err)
	}
}

func TestValidationErrors(t *testing.T) {
	e := sim.NewEngine(1)
	d := New(e, "nvme0", 1<<20, calmParams(), false)
	e.Go("io", func(p *sim.Proc) {
		cases := []*Request{
			{Op: OpRead, Offset: -1, Size: 4096},
			{Op: OpRead, Offset: 1 << 20, Size: 1},
			{Op: OpWrite, Offset: 0, Size: 0},
			{Op: OpWrite, Offset: 0, Size: 8, Data: make([]byte, 4)},
			{Op: OpType(99), Offset: 0, Size: 8},
		}
		for i, req := range cases {
			if res := d.Execute(p, req); res.Err == nil {
				t.Errorf("case %d: expected error", i)
			}
		}
		d.Close()
	})
	if err := e.Run(); err != nil {
		t.Fatal(err)
	}
}

func TestFlush(t *testing.T) {
	e := sim.NewEngine(1)
	d := New(e, "nvme0", 1<<20, calmParams(), false)
	e.Go("io", func(p *sim.Proc) {
		t0 := p.Now()
		if res := d.Execute(p, &Request{Op: OpFlush}); res.Err != nil {
			t.Error(res.Err)
		}
		if p.Now() == t0 {
			t.Error("flush should take time")
		}
		d.Close()
	})
	if err := e.Run(); err != nil {
		t.Fatal(err)
	}
}

func TestJitterAndStallsAffectTail(t *testing.T) {
	e := sim.NewEngine(7)
	p := model.DefaultSSD()
	p.StallProb = 0.01 // exaggerate for the test
	d := New(e, "nvme0", 1<<30, p, false)
	e.Go("io", func(pr *sim.Proc) {
		for i := 0; i < 3000; i++ {
			d.Execute(pr, &Request{Op: OpRead, Offset: 0, Size: 4096})
		}
		d.Close()
	})
	if err := e.Run(); err != nil {
		t.Fatal(err)
	}
	h := d.ServiceHist
	if h.P9999() < 2*h.P50() {
		t.Fatalf("stalls should inflate tail: p50=%d p99.99=%d", h.P50(), h.P9999())
	}
}

func TestMetrics(t *testing.T) {
	e := sim.NewEngine(1)
	d := New(e, "nvme0", 1<<30, calmParams(), false)
	e.Go("io", func(p *sim.Proc) {
		d.Execute(p, &Request{Op: OpRead, Offset: 0, Size: 1000})
		d.Execute(p, &Request{Op: OpWrite, Offset: 0, Size: 2000})
		d.Close()
	})
	if err := e.Run(); err != nil {
		t.Fatal(err)
	}
	if d.ReadOps != 1 || d.ReadBytes != 1000 || d.WriteOps != 1 || d.WriteBytes != 2000 {
		t.Fatalf("metrics: %d/%d %d/%d", d.ReadOps, d.ReadBytes, d.WriteOps, d.WriteBytes)
	}
	if d.Utilization() <= 0 || d.Utilization() > 1 {
		t.Fatalf("utilization %v", d.Utilization())
	}
}

func TestPageStoreProperty(t *testing.T) {
	// Property: for any sequence of writes, a read of any range returns
	// the bytes of the most recent write covering each offset (zero if
	// never written). Verified against a flat reference array.
	type wr struct {
		Off  uint32
		Data []byte
	}
	f := func(writes []wr) bool {
		const space = 1 << 18
		e := sim.NewEngine(3)
		d := New(e, "prop", space, calmParams(), true)
		ref := make([]byte, space)
		okAll := true
		e.Go("io", func(p *sim.Proc) {
			defer d.Close()
			for _, w := range writes {
				off := int64(w.Off % (space / 2))
				data := w.Data
				if len(data) == 0 {
					continue
				}
				if len(data) > space/4 {
					data = data[:space/4]
				}
				res := d.Execute(p, &Request{Op: OpWrite, Offset: off, Size: len(data), Data: data})
				if res.Err != nil {
					okAll = false
					return
				}
				copy(ref[off:], data)
			}
			got := d.Execute(p, &Request{Op: OpRead, Offset: 0, Size: space})
			if !bytes.Equal(got.Data, ref) {
				okAll = false
			}
		})
		if err := e.Run(); err != nil {
			return false
		}
		return okAll
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 30}); err != nil {
		t.Fatal(err)
	}
}

// TestReadIntoDestination: a read with a caller-owned Data fills exactly
// that slice — written bytes where written, zeros over stale contents
// elsewhere — and returns it; a wrong-length destination is rejected; a
// device that does not retain data leaves it alone.
func TestReadIntoDestination(t *testing.T) {
	const size = 3 * pageSize / 2
	poisoned := func() []byte { return bytes.Repeat([]byte{0xDB}, size) }
	e := sim.NewEngine(1)
	d := New(e, "nvme0", 1<<30, calmParams(), true)
	blind := New(e, "blind", 1<<30, calmParams(), false)
	payload := make([]byte, 10_000)
	for i := range payload {
		payload[i] = byte(i*13 + 1)
	}
	e.Go("io", func(p *sim.Proc) {
		defer d.Close()
		defer blind.Close()
		// Written: [off+5000, off+15000), inside the first page; the rest
		// of the span, including the whole second page, never was.
		const off = 3 * pageSize
		if res := d.Execute(p, &Request{Op: OpWrite, Offset: off + 5000, Size: len(payload), Data: payload}); res.Err != nil {
			t.Error(res.Err)
			return
		}
		want := make([]byte, size)
		copy(want[5000:], payload)
		dst := poisoned()
		res := d.Execute(p, &Request{Op: OpRead, Offset: off, Size: size, Data: dst})
		if res.Err != nil {
			t.Error(res.Err)
			return
		}
		if !bytes.Equal(dst, want) {
			t.Error("destination holds wrong bytes (stale 0xDB where zeros belong?)")
		}
		if len(res.Data) != size || &res.Data[0] != &dst[0] {
			t.Error("Result.Data does not alias the destination")
		}
		if res := d.Execute(p, &Request{Op: OpRead, Offset: off, Size: size, Data: make([]byte, size-1)}); res.Err == nil {
			t.Error("wrong-length destination accepted")
		}
		dst = poisoned()
		res = blind.Execute(p, &Request{Op: OpRead, Offset: off, Size: size, Data: dst})
		if res.Err != nil || res.Data != nil {
			t.Errorf("non-retaining device: err %v, %d data bytes; want nil, nil", res.Err, len(res.Data))
		}
		if !bytes.Equal(dst, poisoned()) {
			t.Error("non-retaining device wrote into the destination")
		}
	})
	if err := e.Run(); err != nil {
		t.Fatal(err)
	}
}
