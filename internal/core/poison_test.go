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
