package tcp

import (
	"bytes"
	"testing"

	"nvmeoaf/internal/model"
	"nvmeoaf/internal/sim"
	"nvmeoaf/internal/transport"
)

// runBurst writes 32 distinct payloads and reads them back over NVMe/TCP,
// singly (batch <= 1) or through SubmitBatch with wire batching enabled,
// returning the read payloads and the total message count.
func runBurst(t *testing.T, batch int) (reads [][]byte, msgs int64) {
	t.Helper()
	const burstN = 32
	const ioSize = 4096
	r := newRig(t, true, func(tp *model.TCPTransportParams) { tp.BatchSize = batch })
	r.e.Go("app", func(p *sim.Proc) {
		c := r.connect(t, p, 64)
		writes := make([]*transport.IO, burstN)
		for i := range writes {
			data := bytes.Repeat([]byte{byte(i + 1)}, ioSize)
			writes[i] = &transport.IO{Write: true, Offset: int64(i) * ioSize, Size: ioSize, Data: data}
		}
		for i, f := range submitAll(p, c, batch, writes) {
			if err := f.Wait(p).Err(); err != nil {
				t.Errorf("write %d: %v", i, err)
			}
		}
		rds := make([]*transport.IO, burstN)
		for i := range rds {
			rds[i] = &transport.IO{Offset: int64(i) * ioSize, Size: ioSize, Data: make([]byte, ioSize)}
		}
		for i, f := range submitAll(p, c, batch, rds) {
			res := f.Wait(p)
			if err := res.Err(); err != nil {
				t.Errorf("read %d: %v", i, err)
				continue
			}
			reads = append(reads, res.Data)
		}
		c.Close()
		c.WaitClosed(p)
	})
	if err := r.e.Run(); err != nil {
		t.Fatal(err)
	}
	return reads, r.link.A.MsgsSent + r.link.B.MsgsSent
}

func submitAll(p *sim.Proc, c transport.Queue, batch int, ios []*transport.IO) []*sim.Future[*transport.Result] {
	if batch > 1 {
		return transport.SubmitBatch(p, c, ios, nil)
	}
	futs := make([]*sim.Future[*transport.Result], len(ios))
	for i, io := range ios {
		futs[i] = transport.Submit(p, c, io)
	}
	return futs
}

// TestBatchedBurstEquivalence: batching must not change a single byte of
// what reads return, while strictly reducing the number of network
// messages for the same burst.
func TestBatchedBurstEquivalence(t *testing.T) {
	singleReads, singleMsgs := runBurst(t, 0)
	batchedReads, batchedMsgs := runBurst(t, 8)
	if len(singleReads) != len(batchedReads) {
		t.Fatalf("read counts differ: %d vs %d", len(singleReads), len(batchedReads))
	}
	for i := range singleReads {
		want := bytes.Repeat([]byte{byte(i + 1)}, 4096)
		if !bytes.Equal(singleReads[i], want) {
			t.Fatalf("single read %d corrupted", i)
		}
		if !bytes.Equal(batchedReads[i], singleReads[i]) {
			t.Fatalf("batched read %d differs from single-submission read", i)
		}
	}
	if batchedMsgs >= singleMsgs {
		t.Errorf("batched run must use strictly fewer messages: %d vs %d", batchedMsgs, singleMsgs)
	}
}

// TestBatchSizeOneIsWireIdentical pins that 0 and 1 produce the same
// classic wire behavior.
func TestBatchSizeOneIsWireIdentical(t *testing.T) {
	_, a := runBurst(t, 0)
	_, b := runBurst(t, 1)
	if a != b {
		t.Fatalf("BatchSize 1 changed the wire: %d vs %d messages", b, a)
	}
}
