package core

import (
	"bytes"
	"fmt"
	"testing"

	"nvmeoaf/internal/model"
	"nvmeoaf/internal/netsim"
	"nvmeoaf/internal/session"
	"nvmeoaf/internal/sim"
	"nvmeoaf/internal/transport"
)

// burstOutcome captures everything observable about one write+read burst:
// the bytes each read returned, the wire traffic, and the shared-memory
// slot accounting.
type burstOutcome struct {
	reads  [][]byte
	msgs   int64
	claims int64
}

// runBurst writes burstN distinct payloads, reads each back, and tears
// the connection down. batch <= 1 issues each command with its own
// Submit (classic one-message-per-command); batch > 1 enables wire
// batching and issues the bursts through SubmitBatch.
func runBurst(t *testing.T, design Design, batch int) burstOutcome {
	t.Helper()
	const burstN = 32
	const ioSize = 4096

	tp := model.DefaultTCPTransport()
	tp.BatchSize = batch
	r := newRig(t, design, true, func(cfg *ServerConfig) { cfg.TP = tp })
	var out burstOutcome
	r.e.Go("app", func(p *sim.Proc) {
		c, err := Connect(p, r.link.A, ClientConfig{
			ConnOptions: session.ConnOptions{NQN: testNQN, QueueDepth: 64},
			Design:      design, Region: r.region, TP: tp,
		})
		if err != nil {
			t.Error(err)
			return
		}
		writes := make([]*transport.IO, burstN)
		for i := range writes {
			data := bytes.Repeat([]byte{byte(i + 1)}, ioSize)
			writes[i] = &transport.IO{Write: true, Offset: int64(i) * ioSize, Size: ioSize, Data: data}
		}
		wfuts := submitAll(p, c, batch, writes)
		for i, f := range wfuts {
			if err := f.Wait(p).Err(); err != nil {
				t.Errorf("write %d: %v", i, err)
			}
		}
		reads := make([]*transport.IO, burstN)
		for i := range reads {
			reads[i] = &transport.IO{Offset: int64(i) * ioSize, Size: ioSize, Data: make([]byte, ioSize)}
		}
		rfuts := submitAll(p, c, batch, reads)
		for i, f := range rfuts {
			res := f.Wait(p)
			if err := res.Err(); err != nil {
				t.Errorf("read %d: %v", i, err)
				continue
			}
			out.reads = append(out.reads, res.Data)
		}
		c.Close()
		c.WaitClosed(p)
	})
	if err := r.e.Run(); err != nil {
		t.Fatal(err)
	}
	out.msgs = r.link.A.MsgsSent + r.link.B.MsgsSent
	if r.region != nil {
		out.claims = r.region.Claims
	}
	return out
}

// submitAll issues the burst singly or as one batched doorbell.
func submitAll(p *sim.Proc, c *Client, batch int, ios []*transport.IO) []*sim.Future[*transport.Result] {
	if batch > 1 {
		return transport.SubmitBatch(p, c, ios, nil)
	}
	futs := make([]*sim.Future[*transport.Result], len(ios))
	for i, io := range ios {
		futs[i] = transport.Submit(p, c, io)
	}
	return futs
}

// TestBatchedBurstEquivalence runs the same write+read burst singly and
// batched on every design: results must be byte-identical while the
// batched run puts strictly fewer messages on the wire (fewer doorbells
// and SHM notifies) without changing the shared-memory slot traffic.
func TestBatchedBurstEquivalence(t *testing.T) {
	designs := []Design{DesignTCP, DesignSHMBaseline, DesignSHMLockFree, DesignSHMFlowCtl, DesignSHMZeroCopy}
	for _, d := range designs {
		t.Run(fmt.Sprint(d), func(t *testing.T) {
			single := runBurst(t, d, 0)
			batched := runBurst(t, d, 8)
			if len(single.reads) != len(batched.reads) {
				t.Fatalf("read counts differ: %d vs %d", len(single.reads), len(batched.reads))
			}
			for i := range single.reads {
				want := bytes.Repeat([]byte{byte(i + 1)}, 4096)
				if !bytes.Equal(single.reads[i], want) {
					t.Fatalf("single read %d corrupted", i)
				}
				if !bytes.Equal(batched.reads[i], single.reads[i]) {
					t.Fatalf("batched read %d differs from single-submission read", i)
				}
			}
			if batched.msgs >= single.msgs {
				t.Errorf("batched run must use strictly fewer messages: %d vs %d", batched.msgs, single.msgs)
			}
			if d.UsesSHM() && batched.claims != single.claims {
				t.Errorf("slot claims changed under batching: %d vs %d", batched.claims, single.claims)
			}
		})
	}
}

// TestBatchSizeOneIsWireIdentical pins the compatibility guarantee: a
// batch depth of 0 or 1 must produce exactly the classic message
// sequence, so existing calibrations are untouched.
func TestBatchSizeOneIsWireIdentical(t *testing.T) {
	a := runBurst(t, DesignSHMZeroCopy, 0)
	b := runBurst(t, DesignSHMZeroCopy, 1)
	if a.msgs != b.msgs {
		t.Fatalf("BatchSize 1 changed the wire: %d vs %d messages", b.msgs, a.msgs)
	}
}

// TestStripedQueueOrderingAndSpread covers the striping policy at the
// transport layer: every offset deterministically maps to one member
// (read-your-write per offset), small I/Os at consecutive stripe units
// rotate across members, and a large I/O splits into per-member segments
// that reassemble byte-identically.
func TestStripedQueueOrderingAndSpread(t *testing.T) {
	const members = 4
	tp := model.DefaultTCPTransport()
	rigs := make([]*rig, members)
	// All members share one engine and target via a single rig plus
	// extra links/servers, mirroring a multi-qpair connection.
	r0 := newRig(t, DesignSHMZeroCopy, true, nil)
	rigs[0] = r0
	links := []*netsim.Link{r0.link}
	for i := 1; i < members; i++ {
		l := netsim.NewLoopLink(r0.e, model.Loopback())
		srv := NewServer(r0.e, r0.srv.Subsys(), ServerConfig{
			ServeOptions: session.ServeOptions{NQN: testNQN},
			Design:       DesignSHMZeroCopy, Fabric: r0.fabric, TP: tp,
		})
		srv.Serve(l.B)
		links = append(links, l)
	}
	r0.e.Go("app", func(p *sim.Proc) {
		qs := make([]transport.Queue, members)
		clients := make([]*Client, members)
		for i := 0; i < members; i++ {
			region, err := r0.fabric.RegionFor(DesignSHMZeroCopy, "host0", "host0", 1<<20, tp.ChunkSize, 32)
			if err != nil {
				t.Error(err)
				return
			}
			c, err := Connect(p, links[i].A, ClientConfig{
				ConnOptions: session.ConnOptions{NQN: testNQN, QueueDepth: 32},
				Design:      DesignSHMZeroCopy, Region: region, TP: tp,
			})
			if err != nil {
				t.Error(err)
				return
			}
			qs[i], clients[i] = c, c
		}
		unit := 64 << 10
		sq := transport.NewStriped(unit, qs...)

		// Per-offset read-your-write: write then immediately read the same
		// offset; the deterministic offset->member mapping serializes them
		// on one queue.
		for i := 0; i < 16; i++ {
			off := int64(i) * int64(unit)
			data := bytes.Repeat([]byte{byte(0xA0 + i)}, 4096)
			wf := transport.Submit(p, sq, &transport.IO{Write: true, Offset: off, Size: 4096, Data: data})
			rf := transport.Submit(p, sq, &transport.IO{Offset: off, Size: 4096, Data: make([]byte, 4096)})
			if err := wf.Wait(p).Err(); err != nil {
				t.Errorf("write %d: %v", i, err)
			}
			res := rf.Wait(p)
			if err := res.Err(); err != nil {
				t.Errorf("read %d: %v", i, err)
			} else if !bytes.Equal(res.Data, data) {
				t.Errorf("offset %d: read-your-write violated", off)
			}
		}
		// Small I/Os at consecutive stripe units spread round-robin: all
		// members completed work.
		for i, c := range clients {
			if c.Completed == 0 {
				t.Errorf("member %d received no I/O: striping not spreading", i)
			}
		}

		// A large I/O spanning all stripes splits and reassembles.
		big := make([]byte, members*unit)
		for i := range big {
			big[i] = byte(i % 251)
		}
		if err := transport.Submit(p, sq, &transport.IO{Write: true, Offset: 0, Size: len(big), Data: big}).Wait(p).Err(); err != nil {
			t.Fatalf("large write: %v", err)
		}
		back := make([]byte, len(big))
		res := transport.Submit(p, sq, &transport.IO{Offset: 0, Size: len(back), Data: back}).Wait(p)
		if err := res.Err(); err != nil {
			t.Fatalf("large read: %v", err)
		}
		if !bytes.Equal(res.Data, big) {
			t.Fatal("large I/O did not reassemble byte-identically across stripes")
		}
		sq.Close()
		for _, c := range clients {
			c.WaitClosed(p)
		}
	})
	if err := r0.e.Run(); err != nil {
		t.Fatal(err)
	}
}
