package oaf

import (
	"bytes"
	"testing"
)

// The public quick-start flow from the README: claim a registered
// buffer, push, submit the train, reap, release — over a shared-memory
// adaptive connection.
func TestRingQuickstart(t *testing.T) {
	c := NewCluster(Config{Seed: 21})
	if err := c.AddHost("hostA"); err != nil {
		t.Fatal(err)
	}
	if err := c.AddTarget("hostA", "nqn.ring", TargetConfig{
		SSDCapacity: 64 << 20, RetainData: true,
	}); err != nil {
		t.Fatal(err)
	}
	err := c.Run(func(ctx *Ctx) error {
		q, err := ctx.Connect("nqn.ring", ConnectOptions{QueueDepth: 64})
		if err != nil {
			return err
		}
		defer q.Close()
		r := q.Ring(RingOptions{SQSize: 16, BufSize: 8192})

		// Write a train of 8 buffers, each filled in place (zero-copy:
		// the bytes written here are the bytes on the wire).
		for i := 0; i < 8; i++ {
			buf, ok := r.Claim()
			if !ok {
				t.Fatal("claim failed with a fresh arena")
			}
			pat := buf.Bytes()[:8192]
			for j := range pat {
				pat[j] = byte(0x40 + i)
			}
			if !r.Push(SQE{Write: true, Offset: int64(i) * 8192, Size: 8192, Buf: buf, UserData: uint64(i)}) {
				t.Fatal("push failed with an empty SQ")
			}
		}
		if got := r.Submit(); got != 8 {
			t.Fatalf("submitted %d, want 8", got)
		}
		var cq [16]CQE
		n := r.Reap(cq[:], 8)
		if n != 8 {
			t.Fatalf("reaped %d, want 8", n)
		}
		for _, e := range cq[:n] {
			if err := e.Err(); err != nil {
				t.Fatalf("write %d failed: %v", e.UserData, err)
			}
			if e.Latency <= 0 {
				t.Fatalf("write %d completed with no latency", e.UserData)
			}
			r.Release(e.Buf)
		}

		// Read the same extents back through the ring and verify the
		// payloads land in the claimed buffers.
		for i := 0; i < 8; i++ {
			buf, _ := r.Claim()
			r.Push(SQE{Offset: int64(i) * 8192, Size: 8192, Buf: buf, UserData: uint64(i)})
		}
		r.Submit()
		if got := r.Reap(cq[:], 8); got != 8 {
			t.Fatalf("read reap = %d, want 8", got)
		}
		for _, e := range cq[:8] {
			want := bytes.Repeat([]byte{byte(0x40 + e.UserData)}, 8192)
			if !bytes.Equal(e.Buf.Bytes()[:8192], want) {
				t.Fatalf("read %d payload mismatch", e.UserData)
			}
			r.Release(e.Buf)
		}
		r.Close()
		return nil
	})
	if err != nil {
		t.Fatal(err)
	}
	// The ring.* telemetry group must surface in the cluster snapshot.
	snap := c.Snapshot()
	if got := snap.Telemetry.Counters["ring.submits"]; got != 16 {
		t.Fatalf("snapshot ring.submits = %d, want 16", got)
	}
	if got := snap.Telemetry.Counters["ring.reaps"]; got != 16 {
		t.Fatalf("snapshot ring.reaps = %d, want 16", got)
	}
}

// Rings compose with the replicated facade: same semantics over the
// placement/replication router.
func TestRingOverReplicatedNamespace(t *testing.T) {
	c := replicatedCluster(t, 22, 3)
	err := c.Run(func(ctx *Ctx) error {
		rq, err := ctx.On("app").ConnectReplicated("nqn.rep", ReplicaOptions{
			Replicas: 3, WriteQuorum: 2, ExtentSize: 64 << 10,
		})
		if err != nil {
			return err
		}
		defer rq.Close()
		r := rq.Ring(RingOptions{SQSize: 8, BufSize: 4096})
		for i := 0; i < 8; i++ {
			buf, _ := r.Claim()
			copy(buf.Bytes(), bytes.Repeat([]byte{byte(i + 1)}, 4096))
			r.Push(SQE{Write: true, Offset: int64(i) * (64 << 10), Size: 4096, Buf: buf, UserData: uint64(i)})
		}
		if got := r.Submit(); got != 8 {
			t.Fatalf("submitted %d, want 8", got)
		}
		var cq [8]CQE
		if got := r.Reap(cq[:], 8); got != 8 {
			t.Fatalf("reaped %d, want 8", got)
		}
		for _, e := range cq {
			if err := e.Err(); err != nil {
				t.Fatalf("replicated ring write %d: %v", e.UserData, err)
			}
			r.Release(e.Buf)
		}
		// Read-your-write through the normal API confirms the ring's
		// writes actually replicated.
		for i := 0; i < 8; i++ {
			res, err := rq.Read(int64(i)*(64<<10), 4096)
			if err != nil {
				return err
			}
			if res.Data[0] != byte(i+1) {
				t.Fatalf("extent %d holds %#x, want %#x", i, res.Data[0], byte(i+1))
			}
		}
		return nil
	})
	if err != nil {
		t.Fatal(err)
	}
}

// Rings compose with striped queue groups (ConnectGroup): entries split
// across members by offset.
func TestRingOverQueueGroup(t *testing.T) {
	c := NewCluster(Config{Seed: 23})
	if err := c.AddHost("hostA"); err != nil {
		t.Fatal(err)
	}
	if err := c.AddTarget("hostA", "nqn.grp", TargetConfig{
		SSDCapacity: 64 << 20, RetainData: true,
	}); err != nil {
		t.Fatal(err)
	}
	err := c.Run(func(ctx *Ctx) error {
		g, err := ctx.ConnectGroup("nqn.grp", ConnectOptions{Queues: 2, StripeUnit: 4096})
		if err != nil {
			return err
		}
		defer g.Close()
		r := g.Ring(RingOptions{SQSize: 8, BufSize: 16384})
		buf, _ := r.Claim()
		for j := range buf.Bytes()[:16384] {
			buf.Bytes()[j] = 0x5C
		}
		// One 16 KiB write striped 4 ways across the 2 members.
		r.Push(SQE{Write: true, Offset: 0, Size: 16384, Buf: buf, UserData: 9})
		r.Submit()
		var cq [1]CQE
		if r.Reap(cq[:], 1) != 1 {
			t.Fatal("striped ring write never completed")
		}
		if err := cq[0].Err(); err != nil {
			t.Fatalf("striped ring write: %v", err)
		}
		r.Release(cq[0].Buf)
		res, err := g.Read(0, 16384)
		if err != nil {
			return err
		}
		if res.Data[0] != 0x5C || res.Data[16383] != 0x5C {
			t.Fatal("striped ring write payload did not land")
		}
		return nil
	})
	if err != nil {
		t.Fatal(err)
	}
}
