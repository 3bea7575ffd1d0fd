// RDMA fast-path conformance: the MR registration cache, adjacent-
// request merging, and dynamic doorbell coalescing are rdma-wire
// features. These tests prove (a) requesting them is wire-identical
// inert on the tcp and adaptive kinds (the core binding), (b) I/O
// integrity holds over every kind with the fast path requested, and (c) the rdma merge
// path reassembles payloads byte-exact and completes members in
// per-CID submission order.
package conformance

import (
	"bytes"
	"sync"
	"testing"

	"nvmeoaf/internal/dial"
	"nvmeoaf/internal/sim"
	"nvmeoaf/internal/transport"
)

// runBatchWorkload drives a fixed contiguous batch write + batch read
// sequence and returns the read-back buffers.
func runBatchWorkload(t *testing.T, r *rig, o clientOpts) [][]byte {
	t.Helper()
	const n, bs = 8, 4096
	reads := make([][]byte, n)
	r.e.Go("app", func(p *sim.Proc) {
		c := r.connect(p, o)
		writes := make([]*transport.IO, n)
		for i := range writes {
			data := make([]byte, bs)
			for j := range data {
				data[j] = byte((i*bs + j) % 249)
			}
			writes[i] = &transport.IO{Write: true, Offset: int64(i) * bs, Size: bs, Data: data}
		}
		for i, fut := range transport.SubmitBatch(p, c, writes, nil) {
			if res := fut.Wait(p); res.Err() != nil {
				t.Fatalf("write %d: %v", i, res.Err())
			}
		}
		ios := make([]*transport.IO, n)
		for i := range ios {
			reads[i] = make([]byte, bs)
			ios[i] = &transport.IO{Offset: int64(i) * bs, Size: bs, Data: reads[i]}
		}
		for i, fut := range transport.SubmitBatch(p, c, ios, nil) {
			if res := fut.Wait(p); res.Err() != nil {
				t.Fatalf("read %d: %v", i, res.Err())
			}
		}
		c.Close()
		c.WaitClosed(p)
	})
	if err := r.e.Run(); err != nil {
		t.Fatal(err)
	}
	return reads
}

// TestConformanceFastPathIntegrity: the same batched workload, with the
// fast path requested, round-trips byte-exact on every binding.
func TestConformanceFastPathIntegrity(t *testing.T) {
	forEach(t, func(t *testing.T, b binding) {
		r := b.build(t, 7, srvOpts{retain: true})
		reads := runBatchWorkload(t, r, clientOpts{queueDepth: 16, batchSize: 8, fastPath: true})
		for i, got := range reads {
			for j, v := range got {
				if v != byte((i*4096+j)%249) {
					t.Fatalf("read %d byte %d = %d, corrupt after fast-path batch", i, j, v)
				}
			}
		}
	})
}

// TestConformanceFastPathInertForNonRDMA: requesting the fast path on
// the tcp and adaptive kinds changes nothing on the wire — identical
// message and byte counts in both directions — while the rdma binding
// provably coalesces (strictly fewer messages).
func TestConformanceFastPathInertForNonRDMA(t *testing.T) {
	forEach(t, func(t *testing.T, b binding) {
		counts := [2][4]int64{}
		for i, fast := range []bool{false, true} {
			r := b.build(t, 7, srvOpts{retain: true})
			runBatchWorkload(t, r, clientOpts{queueDepth: 16, batchSize: 8, fastPath: fast})
			counts[i] = [4]int64{r.link.A.MsgsSent, r.link.A.BytesSent, r.link.B.MsgsSent, r.link.B.BytesSent}
		}
		if b.rdma() {
			// Merging folds work requests inside the (already batched)
			// train — fewer capsule framings on the client wire — and the
			// merged commands come back as single completions: strictly
			// fewer server messages and client bytes, never more traffic.
			if counts[1][1] >= counts[0][1] || counts[1][2] >= counts[0][2] || counts[1][0] > counts[0][0] {
				t.Fatalf("rdma fast path should coalesce: off=%v on=%v", counts[0], counts[1])
			}
			return
		}
		if counts[0] != counts[1] {
			t.Fatalf("%s wire changed with fast path requested: off=%v on=%v", b.name, counts[0], counts[1])
		}
	})
}

// TestConformanceRDMAMergeCompletionOrder: a merged train's members
// complete individually, in ascending-offset (submission) order, with
// byte-exact payload splitting.
func TestConformanceRDMAMergeCompletionOrder(t *testing.T) {
	r := binding{"rdma", dial.RDMA56}.build(t, 11, srvOpts{retain: true})
	const n, bs = 8, 4096
	var mu sync.Mutex
	var order []int
	reads := make([][]byte, n)
	r.e.Go("app", func(p *sim.Proc) {
		c := r.connect(p, clientOpts{queueDepth: 16, batchSize: n, fastPath: true})
		payload := make([]byte, n*bs)
		for i := range payload {
			payload[i] = byte(i % 241)
		}
		if res := transport.Submit(p, c, &transport.IO{Write: true, Size: len(payload), Data: payload}).Wait(p); res.Err() != nil {
			t.Fatalf("write: %v", res.Err())
		}
		ios := make([]*transport.IO, n)
		for i := range ios {
			reads[i] = make([]byte, bs)
			ios[i] = &transport.IO{Offset: int64(i) * bs, Size: bs, Data: reads[i]}
		}
		futs := transport.SubmitBatch(p, c, ios, nil)
		done := make([]*sim.Future[*transport.Result], n)
		for i := range futs {
			i := i
			done[i] = futs[i]
			r.e.Go("waiter", func(q *sim.Proc) {
				if res := futs[i].Wait(q); res.Err() != nil {
					t.Errorf("read %d: %v", i, res.Err())
				}
				mu.Lock()
				order = append(order, i)
				mu.Unlock()
			})
		}
		for _, f := range done {
			f.Wait(p)
		}
		c.Close()
		c.WaitClosed(p)
		if !bytes.Equal(bytes.Join(reads, nil), payload) {
			t.Error("merged read payloads differ from written data")
		}
	})
	if err := r.e.Run(); err != nil {
		t.Fatal(err)
	}
	if len(order) != n {
		t.Fatalf("completed %d of %d members", len(order), n)
	}
	for i, v := range order {
		if v != i {
			t.Fatalf("completion order %v: member %d completed out of CID order", order, v)
		}
	}
}
