package shm

import (
	"bytes"
	"testing"
	"time"

	"nvmeoaf/internal/model"
	"nvmeoaf/internal/sim"
)

func calmSHM() model.SHMParams {
	p := model.DefaultSHM()
	p.SlotOverhead = 0
	return p
}

func mustRegion(t *testing.T, e *sim.Engine, slotSize, slots int, mode Mode) *Region {
	t.Helper()
	r, err := NewRegion(e, 1, slotSize, slots, calmSHM(), mode, ClaimRoundRobin)
	if err != nil {
		t.Fatal(err)
	}
	return r
}

func TestGeometryValidation(t *testing.T) {
	e := sim.NewEngine(1)
	if _, err := NewRegion(e, 1, 0, 4, calmSHM(), ModeLockFree, ClaimRoundRobin); err == nil {
		t.Fatal("zero slot size accepted")
	}
	if _, err := NewRegion(e, 1, 4096, -1, calmSHM(), ModeLockFree, ClaimRoundRobin); err == nil {
		t.Fatal("negative slot count accepted")
	}
	r := mustRegion(t, e, 4096, 8, ModeLockFree)
	if r.Size() != 2*4096*8 {
		t.Fatalf("size %d", r.Size())
	}
}

func TestClaimReleaseCycle(t *testing.T) {
	e := sim.NewEngine(1)
	r := mustRegion(t, e, 4096, 4, ModeLockFree)
	e.Go("io", func(p *sim.Proc) {
		seen := map[uint32]bool{}
		var slots []Slot
		for i := 0; i < 4; i++ {
			s := r.Claim(p, H2C)
			if seen[s.Index] {
				t.Errorf("slot %d claimed twice", s.Index)
			}
			seen[s.Index] = true
			slots = append(slots, s)
		}
		if r.Busy(H2C) != 4 {
			t.Errorf("busy = %d", r.Busy(H2C))
		}
		for _, s := range slots {
			s.Release()
		}
		if r.Busy(H2C) != 0 {
			t.Errorf("busy after release = %d", r.Busy(H2C))
		}
	})
	if err := e.Run(); err != nil {
		t.Fatal(err)
	}
	if r.Claims != 4 || r.Releases != 4 {
		t.Fatalf("claims=%d releases=%d", r.Claims, r.Releases)
	}
}

func TestDirectionsAreIndependent(t *testing.T) {
	e := sim.NewEngine(1)
	r := mustRegion(t, e, 64, 2, ModeLockFree)
	e.Go("io", func(p *sim.Proc) {
		a := r.Claim(p, H2C)
		b := r.Claim(p, C2H)
		// Same index in different halves must map to disjoint memory.
		a.Bytes()[0] = 0xAA
		b.Bytes()[0] = 0xBB
		if a.Bytes()[0] != 0xAA || b.Bytes()[0] != 0xBB {
			t.Error("halves overlap")
		}
		a.Release()
		b.Release()
	})
	if err := e.Run(); err != nil {
		t.Fatal(err)
	}
}

func TestSlotsDisjointWithinHalf(t *testing.T) {
	e := sim.NewEngine(1)
	r := mustRegion(t, e, 16, 8, ModeLockFree)
	e.Go("io", func(p *sim.Proc) {
		var slots []Slot
		for i := 0; i < 8; i++ {
			s := r.Claim(p, C2H)
			for j := range s.Bytes() {
				s.Bytes()[j] = byte(s.Index)
			}
			slots = append(slots, s)
		}
		for _, s := range slots {
			for _, v := range s.Bytes() {
				if v != byte(s.Index) {
					t.Errorf("slot %d corrupted", s.Index)
				}
			}
			s.Release()
		}
	})
	if err := e.Run(); err != nil {
		t.Fatal(err)
	}
}

func TestClaimBlocksWhenExhausted(t *testing.T) {
	// Slot credits are the shared-memory flow control: a fifth claim on a
	// four-slot half must wait for a release.
	e := sim.NewEngine(1)
	r := mustRegion(t, e, 64, 4, ModeLockFree)
	var fifthAt sim.Time
	e.Go("claimer", func(p *sim.Proc) {
		var slots []Slot
		for i := 0; i < 4; i++ {
			slots = append(slots, r.Claim(p, H2C))
		}
		e.Go("fifth", func(q *sim.Proc) {
			s := r.Claim(q, H2C)
			fifthAt = q.Now()
			s.Release()
		})
		p.Sleep(100 * time.Microsecond)
		slots[0].Release()
		p.Sleep(time.Microsecond)
		for _, s := range slots[1:] {
			s.Release()
		}
	})
	if err := e.Run(); err != nil {
		t.Fatal(err)
	}
	if fifthAt != sim.Time(100*time.Microsecond) {
		t.Fatalf("fifth claim at %v, want 100us", fifthAt)
	}
	if r.ClaimWait.Max() == 0 {
		t.Fatal("claim wait not recorded")
	}
}

func TestRoundRobinSkipsBusySlots(t *testing.T) {
	e := sim.NewEngine(1)
	r := mustRegion(t, e, 64, 3, ModeLockFree)
	e.Go("io", func(p *sim.Proc) {
		a := r.Claim(p, H2C) // slot 0
		b := r.Claim(p, H2C) // slot 1
		c := r.Claim(p, H2C) // slot 2
		b.Release()
		// Next claim must find slot b's index even though the cursor
		// points past it.
		d := r.Claim(p, H2C)
		if d.Index != b.Index {
			t.Errorf("claimed %d, want %d", d.Index, b.Index)
		}
		a.Release()
		c.Release()
		d.Release()
	})
	if err := e.Run(); err != nil {
		t.Fatal(err)
	}
}

func TestCopyInOutRealBytes(t *testing.T) {
	e := sim.NewEngine(1)
	r := mustRegion(t, e, 4096, 2, ModeLockFree)
	payload := bytes.Repeat([]byte{0x5A}, 3000)
	e.Go("io", func(p *sim.Proc) {
		s := r.Claim(p, H2C)
		t0 := p.Now()
		s.CopyIn(p, payload, len(payload))
		copyTime := p.Now().Sub(t0)
		want := time.Duration(3000.0 / calmSHM().CopyBytesPerSec * 1e9)
		if copyTime != want {
			t.Errorf("copy time %v, want %v", copyTime, want)
		}
		dst := make([]byte, 3000)
		got := s.CopyOut(p, dst, 3000)
		if !bytes.Equal(got, payload) {
			t.Error("payload mismatch through shared memory")
		}
		s.Release()
	})
	if err := e.Run(); err != nil {
		t.Fatal(err)
	}
	if r.CopiedBytes != 6000 {
		t.Fatalf("copied bytes %d", r.CopiedBytes)
	}
}

func TestVirtualCopyChargesTimeOnly(t *testing.T) {
	e := sim.NewEngine(1)
	r := mustRegion(t, e, 1<<20, 2, ModeLockFree)
	e.Go("io", func(p *sim.Proc) {
		s := r.Claim(p, C2H)
		t0 := p.Now()
		s.CopyIn(p, nil, 1<<20)
		if p.Now() == t0 {
			t.Error("virtual copy charged no time")
		}
		s.CopyOut(p, nil, 1<<20)
		s.Release()
	})
	if err := e.Run(); err != nil {
		t.Fatal(err)
	}
}

func TestOversizePayloadPanics(t *testing.T) {
	e := sim.NewEngine(1)
	r := mustRegion(t, e, 512, 1, ModeLockFree)
	e.Go("io", func(p *sim.Proc) {
		s := r.Claim(p, H2C)
		s.CopyIn(p, nil, 1024) // exceeds slot
	})
	if err := e.Run(); err == nil {
		t.Fatal("oversize copy should panic the process")
	}
}

func TestDoubleReleasePanics(t *testing.T) {
	e := sim.NewEngine(1)
	r := mustRegion(t, e, 64, 1, ModeLockFree)
	e.Go("io", func(p *sim.Proc) {
		s := r.Claim(p, H2C)
		s.Release()
		s.Release()
	})
	if err := e.Run(); err == nil {
		t.Fatal("double release should panic the process")
	}
}

func TestOpenByIndex(t *testing.T) {
	e := sim.NewEngine(1)
	r := mustRegion(t, e, 256, 4, ModeLockFree)
	e.Go("io", func(p *sim.Proc) {
		s := r.Claim(p, H2C)
		copy(s.Bytes(), "hello")
		peer, err := r.Open(H2C, s.Index)
		if err != nil {
			t.Fatal(err)
		}
		if string(peer.Bytes()[:5]) != "hello" {
			t.Error("peer view differs")
		}
		if _, err := r.Open(H2C, 99); err == nil {
			t.Error("out-of-range open accepted")
		}
		free := (s.Index + 1) % 4
		if _, err := r.Open(H2C, free); err == nil {
			t.Error("open of free slot accepted")
		}
		s.Release()
	})
	if err := e.Run(); err != nil {
		t.Fatal(err)
	}
}

func TestLockedModeSerializesCopies(t *testing.T) {
	// Two concurrent 1MB copies: lock-free overlaps them (total ~= one
	// copy time), locked serializes them (total ~= two copy times).
	elapsed := func(mode Mode) time.Duration {
		e := sim.NewEngine(1)
		params := calmSHM()
		params.LockHold = 0
		r, err := NewRegion(e, 1, 1<<20, 2, params, mode, ClaimRoundRobin)
		if err != nil {
			t.Fatal(err)
		}
		wg := sim.NewWaitGroup(e)
		wg.Add(2)
		var done sim.Time
		for i := 0; i < 2; i++ {
			e.Go("copier", func(p *sim.Proc) {
				s := r.Claim(p, H2C)
				s.CopyIn(p, nil, 1<<20)
				s.Release()
				wg.Done()
			})
		}
		e.Go("join", func(p *sim.Proc) {
			wg.Wait(p)
			done = p.Now()
		})
		if err := e.Run(); err != nil {
			t.Fatal(err)
		}
		return time.Duration(done)
	}
	free := elapsed(ModeLockFree)
	locked := elapsed(ModeLocked)
	if locked < free*3/2 {
		t.Fatalf("locked %v should be ~2x lock-free %v", locked, free)
	}
}

func TestLockWaitRecordedInLockedMode(t *testing.T) {
	e := sim.NewEngine(1)
	r := mustRegion(t, e, 1<<20, 2, ModeLocked)
	wg := sim.NewWaitGroup(e)
	wg.Add(2)
	for i := 0; i < 2; i++ {
		e.Go("copier", func(p *sim.Proc) {
			s := r.Claim(p, C2H)
			s.CopyOut(p, nil, 1<<20)
			s.Release()
			wg.Done()
		})
	}
	if err := e.Run(); err != nil {
		t.Fatal(err)
	}
	if r.LockWait.Count() != 2 || r.LockWait.Max() == 0 {
		t.Fatalf("lock wait: n=%d max=%d", r.LockWait.Count(), r.LockWait.Max())
	}
}

func TestModeAndDirectionStrings(t *testing.T) {
	if ModeLocked.String() == "" || ModeLockFree.String() == "" {
		t.Fatal("mode strings")
	}
	if H2C.String() != "h2c" || C2H.String() != "c2h" {
		t.Fatal("direction strings")
	}
}

func TestEncryptionRoundTripAndAtRestCiphertext(t *testing.T) {
	e := sim.NewEngine(1)
	r := mustRegion(t, e, 4096, 2, ModeLockFree)
	r.EnableEncryption(0xDEADBEEF, 1.5e9)
	if !r.Encrypted() {
		t.Fatal("encryption not enabled")
	}
	payload := bytes.Repeat([]byte{0x42}, 1024)
	e.Go("io", func(p *sim.Proc) {
		s := r.Claim(p, H2C)
		s.CopyIn(p, payload, len(payload))
		// Data at rest must not be plaintext.
		if bytes.Equal(s.Bytes()[:len(payload)], payload) {
			t.Error("region holds plaintext")
		}
		dst := make([]byte, len(payload))
		got := s.CopyOut(p, dst, len(payload))
		if !bytes.Equal(got, payload) {
			t.Error("decipher mismatch")
		}
		// Still ciphertext at rest after the read.
		if bytes.Equal(s.Bytes()[:len(payload)], payload) {
			t.Error("region holds plaintext after read")
		}
		s.Release()
	})
	if err := e.Run(); err != nil {
		t.Fatal(err)
	}
}

func TestEncryptionChargesCipherCost(t *testing.T) {
	elapsed := func(encrypted bool) sim.Time {
		e := sim.NewEngine(1)
		r := mustRegion(t, e, 1<<20, 2, ModeLockFree)
		if encrypted {
			r.EnableEncryption(7, 1e9)
		}
		var done sim.Time
		e.Go("io", func(p *sim.Proc) {
			s := r.Claim(p, H2C)
			s.CopyIn(p, nil, 1<<20)
			s.CopyOut(p, nil, 1<<20)
			s.Release()
			done = p.Now()
		})
		if err := e.Run(); err != nil {
			t.Fatal(err)
		}
		return done
	}
	plain := elapsed(false)
	enc := elapsed(true)
	if enc <= plain {
		t.Fatalf("encryption (%v) must cost more than plaintext (%v)", enc, plain)
	}
}

func TestKeystreamIsInvolution(t *testing.T) {
	buf := make([]byte, 1000)
	for i := range buf {
		buf[i] = byte(i)
	}
	orig := append([]byte(nil), buf...)
	xorKeystream(buf, 99, 5)
	if bytes.Equal(buf, orig) {
		t.Fatal("keystream did nothing")
	}
	xorKeystream(buf, 99, 5)
	if !bytes.Equal(buf, orig) {
		t.Fatal("keystream not an involution")
	}
	// Different slots produce different streams.
	a := append([]byte(nil), orig...)
	b := append([]byte(nil), orig...)
	xorKeystream(a, 99, 1)
	xorKeystream(b, 99, 2)
	if bytes.Equal(a, b) {
		t.Fatal("slot keystreams identical")
	}
}
