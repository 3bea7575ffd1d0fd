package session

import (
	"testing"
	"time"

	"nvmeoaf/internal/bdev"
	"nvmeoaf/internal/mempool"
	"nvmeoaf/internal/model"
	"nvmeoaf/internal/netsim"
	"nvmeoaf/internal/nvme"
	"nvmeoaf/internal/pdu"
	"nvmeoaf/internal/sim"
	"nvmeoaf/internal/target"
)

// tcpStubWire serves reads and conservative writes the way the NVMe/TCP
// rows do, with nothing of its own.
type tcpStubWire struct{}

func (tcpStubWire) NewConn(c *Conn) ConnWire { return tcpStubConn{c} }

type tcpStubConn struct{ c *Conn }

func (w tcpStubConn) OnICReq(*pdu.ICReq) { w.c.Post(&pdu.ICResp{}) }
func (tcpStubConn) TrType() uint8        { return nvme.TrTypeTCP }
func (tcpStubConn) PreLoop()             {}
func (w tcpStubConn) DispatchRead(cmd nvme.Command, transit time.Duration) {
	w.c.StartRead(cmd, transit, nil)
}
func (w tcpStubConn) DispatchWrite(cap *pdu.CapsuleCmd, size int, transit time.Duration) {
	w.c.StartConservativeWrite(cap.Cmd, size, transit)
}
func (tcpStubConn) HandlePDU(*sim.Proc, pdu.PDU, time.Duration) bool { return false }
func (tcpStubConn) Teardown()                                        {}

// newAllocTarget serves nqn's 64 MiB namespace through the engine with a
// pool of poolElems 4 KiB elements, over a link that costs no time; the
// test plays the host on the link's B side.
func newAllocTarget(t *testing.T, poolElems int) (*sim.Engine, *Conn, *mempool.Pool, *netsim.Link) {
	t.Helper()
	const nqn = "nqn.alloc"
	e := sim.NewEngine(1)
	tgt := target.New(e, model.DefaultHost())
	sub, err := tgt.AddSubsystem(nqn)
	if err != nil {
		t.Fatal(err)
	}
	if _, err := sub.AddNamespace(1, bdev.NewSimSSD(e, "ssd", 64<<20, model.DefaultSSD(), false, 512)); err != nil {
		t.Fatal(err)
	}
	pool := mempool.New("alloc", 4096, poolElems)
	link := netsim.NewLoopLink(e, instant)
	conn := NewTarget(e, tgt, TargetConfig{
		ServeOptions: ServeOptions{NQN: nqn},
		Label:        "alloc",
		ChunkSize:    4096,
		Pool:         pool,
	}, tcpStubWire{}).Serve(link.A)
	return e, conn, pool, link
}

// TestTargetCommandAllocatesNothing is the target side's allocation
// budget: from a decoded command to its last PDU on the wire — buffer
// reservation, the device worker, the bdev request and its completion,
// the R2T, data reassembly, the response and data PDUs — a steady-state
// 4 KiB read and a 4 KiB conservative write allocate nothing. The test
// hands decoded PDUs straight to the connection (decoding belongs to the
// pdu layer) and plays the host on a link that costs no time, receiving
// each message without decoding it.
func TestTargetCommandAllocatesNothing(t *testing.T) {
	e, conn, pool, link := newAllocTarget(t, 16)

	var readAllocs, writeAllocs float64
	e.Go("host", func(p *sim.Proc) {
		read := pdu.CapsuleCmd{Cmd: nvme.NewRead(1, 1, 0, 8)}
		write := pdu.CapsuleCmd{Cmd: nvme.NewWrite(2, 1, 8, 8)}
		data := pdu.Data{Dir: pdu.TypeH2CData, CID: 2, TTag: 2, VirtualLen: 4096, Last: true}
		recv := func(want int) {
			msg := link.B.Recv(p)
			if msg.Wire != want {
				t.Errorf("message of %d wire bytes, want %d", msg.Wire, want)
			}
			msg.Release()
		}
		resp := (&pdu.CapsuleResp{}).WireLen()
		readCycle := func() {
			conn.onCommand(p, &read, 0)
			recv((&pdu.Data{VirtualLen: 4096}).WireLen() + resp)
		}
		writeCycle := func() {
			conn.onCommand(p, &write, 0)
			recv((&pdu.R2T{}).WireLen())
			conn.onData(p, &data, 0)
			recv(resp)
		}
		for i := 0; i < 64; i++ {
			readCycle()
			writeCycle()
		}
		readAllocs = testing.AllocsPerRun(200, readCycle)
		writeAllocs = testing.AllocsPerRun(200, writeCycle)
	})
	if err := e.Run(); err != nil {
		t.Fatal(err)
	}
	t.Logf("4 KiB read %.0f allocs, 4 KiB write %.0f allocs", readAllocs, writeAllocs)
	if readAllocs != 0 || writeAllocs != 0 {
		t.Errorf("target side allocates per command: read %.0f, write %.0f, want 0", readAllocs, writeAllocs)
	}
	if pool.InUse() != 0 || len(conn.Writes) != 0 {
		t.Errorf("after the last cycle: %d pool elements in use, %d writes open", pool.InUse(), len(conn.Writes))
	}
}

// TestRetriedWriteGrantedTwiceFreesTheFirst: with the pool exhausted, a
// conservative write and its retry (same CID) both wait for buffers and
// are granted in turn. The second grant must reclaim the first, or the
// first grant's pool element and slot are never freed.
func TestRetriedWriteGrantedTwiceFreesTheFirst(t *testing.T) {
	e, conn, pool, link := newAllocTarget(t, 2)
	e.GoDaemon("drain", func(p *sim.Proc) {
		for {
			link.B.Recv(p).Release()
		}
	})
	cids := []uint16{1, 9, 3, 3} // 1 and 9 take the pool; 3 and its retry wait
	e.Go("host", func(p *sim.Proc) {
		for _, cid := range cids {
			w := pdu.CapsuleCmd{Cmd: nvme.NewWrite(cid, 1, uint64(cid)*8, 8)}
			conn.onCommand(p, &w, 0)
		}
		if got := conn.WaitsQ.Len(); got != 2 {
			t.Fatalf("%d writes wait for buffers, want 2", got)
		}
		for _, cid := range cids {
			d := pdu.Data{Dir: pdu.TypeH2CData, CID: cid, TTag: cid, VirtualLen: 4096, Last: true}
			conn.onData(p, &d, 0)
			p.Sleep(time.Millisecond) // the write executes; a waiter is granted
		}
	})
	if err := e.Run(); err != nil {
		t.Fatal(err)
	}
	if pool.InUse() != 0 || len(conn.Writes) != 0 || conn.WaitsQ.Len() != 0 {
		t.Errorf("after the run: %d pool elements in use, %d writes open, %d waiting; want 0, 0, 0",
			pool.InUse(), len(conn.Writes), conn.WaitsQ.Len())
	}
}
