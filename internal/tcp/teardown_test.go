package tcp

import (
	"testing"
	"time"

	"nvmeoaf/internal/bdev"
	"nvmeoaf/internal/core"
	"nvmeoaf/internal/model"
	"nvmeoaf/internal/netsim"
	"nvmeoaf/internal/nvme"
	"nvmeoaf/internal/pdu"
	"nvmeoaf/internal/session"
	"nvmeoaf/internal/sim"
	"nvmeoaf/internal/target"
	"nvmeoaf/internal/transport"
)

// TestKATOExpiryReclaimsMidTransferResources drives the server with a
// hand-rolled client that starts a conservative write — reserving every
// pool buffer — receives the R2T, parks a second write in the buffer wait
// queue, and then goes silent. The KATO watchdog teardown must free the
// reserved buffers and drain the parked waiter: a half-dead client must
// not leak the pool credits every other connection depends on.
func TestKATOExpiryReclaimsMidTransferResources(t *testing.T) {
	e := sim.NewEngine(1)
	tgt := target.New(e, model.DefaultHost())
	sub, err := tgt.AddSubsystem(testNQN)
	if err != nil {
		t.Fatal(err)
	}
	ssdParams := model.DefaultSSD()
	ssdParams.JitterFrac = 0
	ssdParams.StallProb = 0
	sub.AddNamespace(1, bdev.NewSimSSD(e, "d", 1<<30, ssdParams, false, transport.BlockSize))
	tp := model.DefaultTCPTransport()
	tp.DataBuffers = 4 // tiny pool: one 4-chunk write exhausts it
	srv := core.NewServer(e, tgt, core.ServerConfig{
		ServeOptions: session.ServeOptions{NQN: testNQN, KATO: 5 * time.Millisecond},
		TrType:       nvme.TrTypeTCP,
		TP:           tp,
	})
	link := netsim.NewLoopLink(e, model.TCP25G())
	conn := srv.Serve(link.B)

	size := 4 * tp.ChunkSize // needs all 4 pool buffers
	e.Go("half-dead-client", func(p *sim.Proc) {
		transport.SendPDUs(p, link.A, &pdu.ICReq{PFV: 0, HPDA: 4, MaxR2T: 16})
		link.A.Recv(p) // ICResp
		connectCmd := nvme.Command{Opcode: nvme.FabricsCommandType, CID: 0xFFFF, CDW10: nvme.FctypeConnect}
		transport.SendPDUs(p, link.A, &pdu.CapsuleCmd{
			Cmd: connectCmd, Data: nvme.EncodeConnectData("nqn.host", testNQN),
		})
		link.A.Recv(p) // connect response
		// First write: the R2T grant reserves all four buffers.
		transport.SendPDUs(p, link.A, &pdu.CapsuleCmd{
			Cmd: nvme.NewWrite(1, 1, 0, uint32(size/transport.BlockSize)),
		})
		link.A.Recv(p) // R2T
		if srv.Pool().InUse() != 4 {
			t.Errorf("pool in use = %d after R2T, want 4", srv.Pool().InUse())
		}
		// Second write: no buffers left, parks in the wait queue.
		transport.SendPDUs(p, link.A, &pdu.CapsuleCmd{
			Cmd: nvme.NewWrite(2, 1, 0, uint32(size/transport.BlockSize)),
		})
		// ... and the client dies: no H2CData ever arrives.
	})
	if err := e.RunUntil(sim.Time(50 * time.Millisecond)); err != nil {
		t.Fatal(err)
	}
	if !conn.Expired {
		t.Fatal("silent mid-transfer connection did not hit the KATO watchdog")
	}
	if srv.BufferWaits == 0 {
		t.Fatal("second write never waited for buffers; test rig is wrong")
	}
	if got := srv.Pool().InUse(); got != 0 {
		t.Fatalf("teardown leaked %d pool buffers", got)
	}
	if got := conn.WaitsQ.Len(); got != 0 {
		t.Fatalf("teardown leaked %d parked buffer waiters", got)
	}
	if len(conn.Writes) != 0 {
		t.Fatalf("teardown leaked %d write contexts", len(conn.Writes))
	}
}
