package tcp

import (
	"bytes"
	"testing"

	"nvmeoaf/internal/core"
	"nvmeoaf/internal/model"
	"nvmeoaf/internal/nvme"
	"nvmeoaf/internal/session"
	"nvmeoaf/internal/sim"
	"nvmeoaf/internal/transport"
)

// TestRealDataRoundTripPoisonedPool runs multi-chunk conservative writes
// with poison-on-free enabled. Payload bytes are staged into the pool
// elements on receive and gathered from them at execute, so a transport
// bug that frees (or reuses) an element before the device read would
// surface here as 0xDB corruption instead of passing silently.
func TestRealDataRoundTripPoisonedPool(t *testing.T) {
	r := newRig(t, true, nil)
	r.srv.Pool.SetPoison(true)
	payload := make([]byte, 512<<10) // 4 chunks at the default 128K
	for i := range payload {
		payload[i] = byte(i*13 + 7)
	}
	r.e.Go("app", func(p *sim.Proc) {
		c := r.connect(t, p, 8)
		for round := 0; round < 3; round++ {
			res := transport.Submit(p, c, &transport.IO{Write: true, Offset: 4096, Size: len(payload), Data: payload}).Wait(p)
			if res.Err() != nil {
				t.Fatalf("round %d write: %v", round, res.Err())
			}
			into := make([]byte, len(payload))
			res = transport.Submit(p, c, &transport.IO{Offset: 4096, Size: len(payload), Data: into}).Wait(p)
			if res.Err() != nil {
				t.Fatalf("round %d read: %v", round, res.Err())
			}
			if !bytes.Equal(res.Data, payload) {
				t.Fatalf("round %d: payload corrupted through poisoned pool", round)
			}
		}
		c.Close()
		c.WaitClosed(p)
	})
	if err := r.e.Run(); err != nil {
		t.Fatal(err)
	}
	if r.srv.Pool.InUse() != 0 {
		t.Fatalf("pool leak: %d elements in use", r.srv.Pool.InUse())
	}
}

// TestSingleChunkReadsPoisonedPool covers the reads the test above never
// makes: ones that fit one pool element, which the device fills in place
// and whose C2H payload is encoded straight from that element. Several
// run at once, so elements are freed (and poisoned) and re-lent while
// other reads still hold theirs; then a never-written range is read
// through a recycled element and must come back as zeros, not 0xDB.
func TestSingleChunkReadsPoisonedPool(t *testing.T) {
	r := newRig(t, true, nil)
	r.srv.Pool.SetPoison(true)
	const ios, slot = 8, 128 << 10
	payload := func(i int) []byte {
		b := make([]byte, slot>>(i%3)) // 128, 64 and 32 KiB
		for j := range b {
			b[j] = byte(j*5 + i*17 + 3)
		}
		return b
	}
	r.e.Go("app", func(p *sim.Proc) {
		c := r.connect(t, p, ios)
		futs := make([]*sim.Future[*transport.Result], ios)
		for i := range futs {
			data := payload(i)
			futs[i] = transport.Submit(p, c, &transport.IO{Write: true, Offset: int64(i * slot), Size: len(data), Data: data})
		}
		for i, f := range futs {
			if res := f.Wait(p); res.Err() != nil {
				t.Errorf("write %d: %v", i, res.Err())
				return
			}
		}
		for round := 0; round < 3; round++ {
			for i := range futs {
				size := len(payload(i))
				futs[i] = transport.Submit(p, c, &transport.IO{Offset: int64(i * slot), Size: size, Data: make([]byte, size)})
			}
			for i, f := range futs {
				res := f.Wait(p)
				if res.Err() != nil || !bytes.Equal(res.Data, payload(i)) {
					t.Errorf("round %d read %d: err %v, payload intact %v", round, i, res.Err(), bytes.Equal(res.Data, payload(i)))
					return
				}
			}
		}
		if r.srv.Pool.Puts == 0 {
			t.Error("no pool element was ever freed: nothing below reads a recycled one")
		}
		res := transport.Submit(p, c, &transport.IO{Offset: 64 * slot, Size: slot, Data: make([]byte, slot)}).Wait(p)
		if res.Err() != nil || !bytes.Equal(res.Data, make([]byte, slot)) {
			t.Errorf("never-written range: err %v, want %d zero bytes", res.Err(), slot)
		}
		c.Close()
		c.WaitClosed(p)
	})
	if err := r.e.Run(); err != nil {
		t.Fatal(err)
	}
	if r.srv.Pool.InUse() != 0 {
		t.Fatalf("pool leak: %d elements in use", r.srv.Pool.InUse())
	}
}

// TestPoisonPoolConfig checks the ServerConfig knob reaches the pool of
// an NVMe/TCP server.
func TestPoisonPoolConfig(t *testing.T) {
	e := sim.NewEngine(1)
	srv := core.NewServer(e, nil, core.ServerConfig{ServeOptions: session.ServeOptions{NQN: "nqn.x"}, TrType: nvme.TrTypeTCP, TP: model.DefaultTCPTransport(), PoisonPool: true})
	if !srv.Pool().Poisoned() {
		t.Fatal("PoisonPool did not enable poison-on-free")
	}
}

// TestRealDataRoundTripPoisonedMessages is the same guard one layer down:
// both endpoints overwrite a network message with 0xDB when its receiver
// releases it. Decoded H2C/C2H payloads borrow the message, so this
// guards their consumers: several I/Os stay in flight, so released
// messages are re-encoded while earlier payloads are still staged or
// waiting for the application, and a consumer that kept a payload past
// Release instead of copying it out would read back poison or a later
// message.
func TestRealDataRoundTripPoisonedMessages(t *testing.T) {
	r := newRig(t, true, nil)
	r.link.A.SetPoison(true)
	r.link.B.SetPoison(true)
	// Odd I/Os travel in their command capsule, even ones as two chunks
	// at the default 128K.
	const ios, slot = 8, 192 << 10
	payload := func(i int) []byte {
		b := make([]byte, slot-i%2*(slot-4096))
		for j := range b {
			b[j] = byte(j*7 + i*31 + 1)
		}
		return b
	}
	r.e.Go("app", func(p *sim.Proc) {
		c := r.connect(t, p, ios)
		for round := 0; round < 3; round++ {
			futs := make([]*sim.Future[*transport.Result], ios)
			for i := range futs {
				data := payload(i)
				futs[i] = transport.Submit(p, c, &transport.IO{Write: true, Offset: int64(i * slot), Size: len(data), Data: data})
			}
			for i, f := range futs {
				if res := f.Wait(p); res.Err() != nil {
					t.Fatalf("round %d write %d: %v", round, i, res.Err())
				}
			}
			for i := range futs {
				size := len(payload(i))
				futs[i] = transport.Submit(p, c, &transport.IO{Offset: int64(i * slot), Size: size, Data: make([]byte, size)})
			}
			for i, f := range futs {
				res := f.Wait(p)
				if res.Err() != nil {
					t.Fatalf("round %d read %d: %v", round, i, res.Err())
				}
				if !bytes.Equal(res.Data, payload(i)) {
					t.Fatalf("round %d read %d: payload corrupted through poisoned messages", round, i)
				}
			}
		}
		c.Close()
		c.WaitClosed(p)
	})
	if err := r.e.Run(); err != nil {
		t.Fatal(err)
	}
}
