package transport

import (
	"testing"
	"testing/quick"

	"nvmeoaf/internal/model"
	"nvmeoaf/internal/netsim"
	"nvmeoaf/internal/nvme"
	"nvmeoaf/internal/pdu"
	"nvmeoaf/internal/sim"
)

func TestNsidDefaults(t *testing.T) {
	io := &IO{}
	if io.Nsid() != 1 {
		t.Fatalf("default nsid %d", io.Nsid())
	}
	io.NSID = 7
	if io.Nsid() != 7 {
		t.Fatalf("nsid %d", io.Nsid())
	}
}

func TestResultErr(t *testing.T) {
	r := &Result{Status: nvme.StatusSuccess}
	if r.Err() != nil {
		t.Fatal("success should be nil error")
	}
	r.Status = nvme.StatusLBAOutOfRange
	if r.Err() == nil {
		t.Fatal("error status should produce error")
	}
}

func TestChunksMath(t *testing.T) {
	cases := []struct{ size, chunk, want int }{
		{100, 0, 1},
		{100, 100, 1},
		{101, 100, 2},
		{512 << 10, 128 << 10, 4},
		{1, 128 << 10, 1},
	}
	for _, tc := range cases {
		if got := Chunks(tc.size, tc.chunk); got != tc.want {
			t.Errorf("Chunks(%d,%d) = %d, want %d", tc.size, tc.chunk, got, tc.want)
		}
	}
}

func TestChunkSizesCoversExactly(t *testing.T) {
	f := func(rawSize, rawChunk uint16) bool {
		size := int(rawSize)%(1<<16) + 1
		chunk := int(rawChunk)%(1<<12) + 1
		covered := 0
		prevEnd := 0
		ok := true
		ChunkSizes(size, chunk, func(off, n int) {
			if off != prevEnd || n <= 0 {
				ok = false
			}
			if n > chunk && size > chunk {
				ok = false
			}
			covered += n
			prevEnd = off + n
		})
		return ok && covered == size
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 2000}); err != nil {
		t.Fatal(err)
	}
}

func TestSendPDUsBatchesOntoOneMessage(t *testing.T) {
	e := sim.NewEngine(1)
	link := netsim.NewLoopLink(e, model.TCP100G())
	e.Go("tx", func(p *sim.Proc) {
		SendPDUs(p, link.A,
			&pdu.R2T{CID: 1, Length: 4096},
			&pdu.CapsuleResp{Rsp: nvme.Completion{CID: 1}},
		)
	})
	var got []pdu.PDU
	e.Go("rx", func(p *sim.Proc) {
		msg := link.B.Recv(p)
		var err error
		got, err = DecodeAll(msg, new(pdu.Decoder))
		if err != nil {
			t.Error(err)
		}
	})
	if err := e.Run(); err != nil {
		t.Fatal(err)
	}
	if link.A.MsgsSent != 1 {
		t.Fatalf("sent %d messages, want 1", link.A.MsgsSent)
	}
	if len(got) != 2 || got[0].Type() != pdu.TypeR2T || got[1].Type() != pdu.TypeCapsuleResp {
		t.Fatalf("decoded %v", got)
	}
}

func TestSendPDUsVirtualWireAccounting(t *testing.T) {
	e := sim.NewEngine(1)
	link := netsim.NewLoopLink(e, model.TCP100G())
	d := &pdu.Data{Dir: pdu.TypeC2HData, CID: 1, VirtualLen: 128 << 10}
	e.Go("tx", func(p *sim.Proc) { SendPDUs(p, link.A, d) })
	e.Go("rx", func(p *sim.Proc) { link.B.Recv(p) })
	if err := e.Run(); err != nil {
		t.Fatal(err)
	}
	if link.A.BytesSent < 128<<10 {
		t.Fatalf("wire bytes %d should include virtual payload", link.A.BytesSent)
	}
}

func TestPendingFinishBreakdown(t *testing.T) {
	e := sim.NewEngine(1)
	fut := sim.NewFuture[*Result](e)
	pend := &Pending{
		IO:       &IO{Size: 4096},
		Fut:      fut,
		SubmitAt: sim.Time(0),
		Comm:     100,
	}
	resp := &pdu.CapsuleResp{
		Rsp:       nvme.Completion{Status: nvme.StatusSuccess},
		IOTimeNs:  500,
		TgtCommNs: 200,
	}
	pend.Finish(sim.Time(1000), resp, nil)
	res, ok := fut.Value()
	if !ok {
		t.Fatal("unresolved")
	}
	if res.Latency != 1000 || res.IOTime != 500 || res.CommTime != 300 || res.OtherTime != 200 {
		t.Fatalf("breakdown: %+v", res)
	}
	// Other clamps at zero when components exceed total.
	fut2 := sim.NewFuture[*Result](e)
	pend2 := &Pending{IO: &IO{}, Fut: fut2, SubmitAt: 0, Comm: 900}
	pend2.Finish(sim.Time(1000), &pdu.CapsuleResp{IOTimeNs: 500}, nil)
	res2, _ := fut2.Value()
	if res2.OtherTime != 0 {
		t.Fatalf("other %v, want 0", res2.OtherTime)
	}
}
