package core

import (
	"bytes"
	"testing"

	"nvmeoaf/internal/sim"
	"nvmeoaf/internal/transport"
)

// TestRealDataAllDesignsPoisonedPool repeats the real-data round trip
// with poison-on-free enabled on the target pool. Conservative-flow
// payloads (TCP data path and chunked shared-memory designs) are staged
// into the pool elements and gathered from them at execute time, so a
// premature free shows up as 0xDB corruption in the readback.
func TestRealDataAllDesignsPoisonedPool(t *testing.T) {
	for _, design := range []Design{DesignTCP, DesignSHMBaseline, DesignSHMFlowCtl, DesignSHMZeroCopy} {
		design := design
		t.Run(design.String(), func(t *testing.T) {
			r := newRig(t, design, true, func(cfg *ServerConfig) {
				cfg.PoisonPool = true
			})
			if design == DesignTCP {
				r.region = nil
			}
			payload := make([]byte, 512<<10) // multi-chunk at the default 128K
			for i := range payload {
				payload[i] = byte(i*11 + 5)
			}
			r.e.Go("app", func(p *sim.Proc) {
				c := r.connect(t, p, design, 8)
				for round := 0; round < 3; round++ {
					res := transport.Submit(p, c, &transport.IO{Write: true, Offset: 8192, Size: len(payload), Data: payload}).Wait(p)
					if res.Err() != nil {
						t.Fatalf("round %d write: %v", round, res.Err())
					}
					into := make([]byte, len(payload))
					res = transport.Submit(p, c, &transport.IO{Offset: 8192, Size: len(payload), Data: into}).Wait(p)
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
			if r.srv.Pool().InUse() != 0 {
				t.Fatalf("pool leak: %d elements in use", r.srv.Pool().InUse())
			}
		})
	}
}

// TestSingleChunkReadsAllDesignsPoisonedPool is the one-element case of the
// test above: a read that fits one pool element is filled in place by the
// device, and each design copies or encodes it from there before freeing
// the element. Several reads run at once over poisoned, recycled elements,
// and a never-written range must read back as zeros, not 0xDB.
func TestSingleChunkReadsAllDesignsPoisonedPool(t *testing.T) {
	const ios, slot = 8, 128 << 10
	payload := func(i int) []byte {
		b := make([]byte, slot>>(i%3)) // 128, 64 and 32 KiB
		for j := range b {
			b[j] = byte(j*3 + i*29 + 1)
		}
		return b
	}
	for _, design := range []Design{DesignTCP, DesignSHMBaseline, DesignSHMFlowCtl, DesignSHMZeroCopy} {
		t.Run(design.String(), func(t *testing.T) {
			r := newRig(t, design, true, func(cfg *ServerConfig) {
				cfg.PoisonPool = true
			})
			if design == DesignTCP {
				r.region = nil
			}
			r.e.Go("app", func(p *sim.Proc) {
				c := r.connect(t, p, design, ios)
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
						if res := f.Wait(p); res.Err() != nil || !bytes.Equal(res.Data, payload(i)) {
							t.Errorf("round %d read %d: err %v, payload intact %v", round, i, res.Err(), bytes.Equal(res.Data, payload(i)))
							return
						}
					}
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
			if r.srv.Pool().Puts == 0 || r.srv.Pool().InUse() != 0 {
				t.Fatalf("pool: %d puts (want > 0), %d elements in use (want 0)", r.srv.Pool().Puts, r.srv.Pool().InUse())
			}
		})
	}
}
