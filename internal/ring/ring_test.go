package ring

import (
	"fmt"
	"testing"
	"time"

	"nvmeoaf/internal/cluster"
	"nvmeoaf/internal/nvme"
	"nvmeoaf/internal/sim"
	"nvmeoaf/internal/telemetry"
	"nvmeoaf/internal/transport"
)

// stubQueue is a synchronous queue: SubmitInto resolves the caller's
// future inline with a single recycled Result, so nothing on
// the stub side allocates or parks — exactly what the zero-alloc gate
// needs to isolate the ring's own hot path.
type stubQueue struct {
	e        *sim.Engine
	res      transport.Result
	lat      time.Duration // >0: resolve via timer instead of inline
	status   nvme.Status
	subs     int
	bells    int
	lastData []byte
}

func (q *stubQueue) SubmitInto(p *sim.Proc, io *transport.IO, fut *sim.Future[*transport.Result]) {
	q.subs++
	q.finish(io, fut)
}

func (q *stubQueue) RingDoorbell(p *sim.Proc) { q.bells++ }

func (q *stubQueue) Close() {}

func (q *stubQueue) finish(io *transport.IO, fut *sim.Future[*transport.Result]) {
	q.lastData = io.Data
	if !io.Write && io.Data != nil {
		for i := range io.Data {
			io.Data[i] = 0xAB
		}
	}
	if q.lat > 0 {
		lat := q.lat
		st := q.status
		q.e.After(lat, func() {
			fut.Resolve(&transport.Result{Status: st, Latency: lat})
		})
		return
	}
	q.res = transport.Result{Status: q.status, Latency: 5 * time.Microsecond}
	fut.Resolve(&q.res)
}

func TestRingRoundTrip(t *testing.T) {
	e := sim.NewEngine(1)
	q := &stubQueue{e: e, status: nvme.StatusSuccess}
	tel := telemetry.New()
	r := New(e, q, Config{SQSize: 8, BufSize: 4096, Telemetry: tel})
	e.Go("app", func(p *sim.Proc) {
		var cq [8]CQE
		for ud := uint64(1); ud <= 4; ud++ {
			buf, ok := r.Claim()
			if !ok {
				t.Fatal("claim failed with a fresh arena")
			}
			if !r.Push(SQE{NSID: 1, Offset: int64(ud) * 4096, Size: 4096, Buf: buf, UserData: ud}) {
				t.Fatal("push failed with an empty SQ")
			}
		}
		if got := r.Submit(p); got != 4 {
			t.Fatalf("submitted %d, want 4", got)
		}
		if q.bells != 1 {
			t.Fatalf("doorbell rang %d times for one train, want 1", q.bells)
		}
		n := r.Reap(p, cq[:], 4)
		if n != 4 {
			t.Fatalf("reaped %d, want 4", n)
		}
		seen := map[uint64]bool{}
		for _, c := range cq[:n] {
			if c.Status != nvme.StatusSuccess {
				t.Fatalf("completion %d status = %v", c.UserData, c.Status)
			}
			if !c.Buf.Valid() {
				t.Fatalf("completion %d lost its buffer", c.UserData)
			}
			if got := c.Buf.Bytes()[0]; got != 0xAB {
				t.Fatalf("read did not land in the registered buffer: byte = %#x", got)
			}
			seen[c.UserData] = true
			r.Release(c.Buf)
		}
		for ud := uint64(1); ud <= 4; ud++ {
			if !seen[ud] {
				t.Fatalf("completion for user data %d never reaped", ud)
			}
		}
	})
	if err := e.Run(); err != nil {
		t.Fatal(err)
	}
	if got := tel.Counter(telemetry.CtrRingSubmits); got != 4 {
		t.Fatalf("ring.submits = %d, want 4", got)
	}
	if got := tel.Counter(telemetry.CtrRingReaps); got != 4 {
		t.Fatalf("ring.reaps = %d, want 4", got)
	}
}

// TestRingHotPathZeroAlloc is the CI allocation gate required by the
// ring contract: on the steady state, one full claim -> push -> submit
// -> reap -> release cycle performs ZERO heap allocations — over a queue,
// over a striped group of queues, since a group forwards each unsplit
// entry, future and all, to the member owning its offset, and over a
// replicated namespace (R=3, W=2), whose router recycles its op records.
// The stubs resolve synchronously so the measurement isolates the ring
// and the composition above it (telemetry stays enabled — it is part of
// the hot path).
func TestRingHotPathZeroAlloc(t *testing.T) {
	for _, tc := range []struct {
		name    string
		members int
	}{{"queue", 1}, {"striped", 4}, {"replicated", 3}} {
		t.Run(tc.name, func(t *testing.T) {
			e := sim.NewEngine(2)
			stubs := make([]*stubQueue, tc.members)
			members := make([]transport.Queue, tc.members)
			for i := range stubs {
				stubs[i] = &stubQueue{e: e, status: nvme.StatusSuccess}
				members[i] = stubs[i]
			}
			q := members[0]
			var repl *cluster.Cluster
			switch tc.name {
			case "striped":
				q = transport.NewStriped(4096, members...)
			case "replicated":
				cm := make([]cluster.Member, len(members))
				for i, m := range members {
					cm[i] = cluster.Member{Name: fmt.Sprintf("m%d", i), Queue: m}
				}
				var err error
				if repl, err = cluster.New(e, cm, cluster.Options{Replicas: 3, WriteQuorum: 2, Telemetry: telemetry.New()}); err != nil {
					t.Fatal(err)
				}
				q = repl
			}
			r := New(e, q, Config{SQSize: 16, BufSize: 4096, Telemetry: telemetry.New()})
			e.Go("app", func(p *sim.Proc) {
				if repl != nil {
					defer repl.Close()
				}
				var cq [16]CQE
				cycle := func(depth int) {
					for i := 0; i < depth; i++ {
						buf, ok := r.Claim()
						if !ok {
							t.Fatal("claim failed")
						}
						if !r.Push(SQE{Write: i%2 == 0, Offset: int64(i) * 4096, Size: 4096, Buf: buf, UserData: uint64(i)}) {
							t.Fatal("push failed")
						}
					}
					if r.Submit(p) != depth {
						t.Fatal("short submit")
					}
					if r.Reap(p, cq[:], depth) != depth {
						t.Fatal("short reap")
					}
					for i := 0; i < depth; i++ {
						r.Release(cq[i].Buf)
					}
				}
				// Warm every slot once so per-slot callback capacity exists.
				cycle(16)
				allocs := testing.AllocsPerRun(200, func() { cycle(16) })
				if allocs != 0 {
					t.Errorf("ring hot path allocates %.1f objects per 16-op cycle, want 0", allocs)
				}
			})
			if err := e.Run(); err != nil {
				t.Fatal(err)
			}
			for i, st := range stubs {
				if repl != nil {
					// Every replica takes every write: 8 per cycle.
					if st.subs < 8*202 {
						t.Errorf("member %d: %d entries, want every write's replica copy", i, st.subs)
					}
					continue
				}
				if st.subs == 0 || st.bells*16 != st.subs*tc.members {
					t.Errorf("member %d: %d entries, %d doorbells; want an even share and one doorbell per train", i, st.subs, st.bells)
				}
			}
		})
	}
}

// The CQ must never be overwritten: submission throttles so inflight +
// unreaped never exceeds CQSize, and the overflow stays queued in the SQ
// until the application reaps.
func TestRingCQBackpressure(t *testing.T) {
	e := sim.NewEngine(4)
	q := &stubQueue{e: e, status: nvme.StatusSuccess}
	r := New(e, q, Config{SQSize: 4, CQSize: 4, Buffers: 16, BufSize: 512})
	e.Go("app", func(p *sim.Proc) {
		var cq [4]CQE
		for i := 0; i < 4; i++ {
			r.Push(SQE{Size: 512, UserData: uint64(i)})
		}
		if got := r.Submit(p); got != 4 {
			t.Fatalf("first train submitted %d, want 4", got)
		}
		// 4 completions sit unreaped; the CQ is full.
		for i := 4; i < 8; i++ {
			r.Push(SQE{Size: 512, UserData: uint64(i)})
		}
		if got := r.Submit(p); got != 0 {
			t.Fatalf("submit with a full CQ let %d ops through, want 0", got)
		}
		if r.Reap(p, cq[:2], 1) != 2 {
			t.Fatal("short reap")
		}
		if got := r.Submit(p); got != 2 {
			t.Fatalf("after reaping 2, submit admitted %d, want 2", got)
		}
		for r.Completed() > 0 || r.Inflight() > 0 || r.Queued() > 0 {
			if r.Reap(p, cq[:], 1) == 0 {
				r.Submit(p)
			}
		}
	})
	if err := e.Run(); err != nil {
		t.Fatal(err)
	}
}

func TestRingStallCountersAndErrors(t *testing.T) {
	e := sim.NewEngine(5)
	q := &stubQueue{e: e, status: nvme.StatusCapacityExceeded}
	tel := telemetry.New()
	r := New(e, q, Config{SQSize: 2, Buffers: 1, BufSize: 512, Telemetry: tel})
	e.Go("app", func(p *sim.Proc) {
		buf, ok := r.Claim()
		if !ok {
			t.Fatal("first claim failed")
		}
		if _, ok := r.Claim(); ok {
			t.Fatal("claim succeeded with an empty arena")
		}
		r.Push(SQE{Size: 512, Buf: buf})
		r.Push(SQE{Size: 512})
		if r.Push(SQE{Size: 512}) {
			t.Fatal("push succeeded with a full SQ")
		}
		r.Submit(p)
		var cq [2]CQE
		if r.Reap(p, cq[:], 2) != 2 {
			t.Fatal("short reap")
		}
		if cq[0].Status != nvme.StatusCapacityExceeded || cq[0].Err() == nil {
			t.Fatalf("error status lost: %v", cq[0].Status)
		}
		r.Release(cq[0].Buf)
		r.Release(cq[1].Buf) // zero Buf: no-op
	})
	if err := e.Run(); err != nil {
		t.Fatal(err)
	}
	if got := tel.Counter(telemetry.CtrRingBufStalls); got != 1 {
		t.Fatalf("ring.buf_stalls = %d, want 1", got)
	}
	if got := tel.Counter(telemetry.CtrRingSQFull); got != 1 {
		t.Fatalf("ring.sq_full_stalls = %d, want 1", got)
	}
}

func TestRingBlockingReapAndClose(t *testing.T) {
	e := sim.NewEngine(6)
	q := &stubQueue{e: e, lat: 10 * time.Microsecond, status: nvme.StatusSuccess}
	r := New(e, q, Config{SQSize: 4, BufSize: 512})
	e.Go("app", func(p *sim.Proc) {
		for i := 0; i < 3; i++ {
			r.Push(SQE{Size: 512, UserData: uint64(i)})
		}
		r.Submit(p)
		start := p.Now()
		var cq [4]CQE
		if n := r.Reap(p, cq[:], 3); n != 3 {
			t.Fatalf("blocking reap returned %d, want 3", n)
		}
		if p.Now().Sub(start) < 10*time.Microsecond {
			t.Fatal("reap returned before the completions could have arrived")
		}
		r.Close()
		if r.Push(SQE{Size: 512}) {
			t.Fatal("push succeeded on a closed ring")
		}
		if r.Reap(p, cq[:], 1) != 0 {
			t.Fatal("idle closed ring reaped nonzero")
		}
	})
	if err := e.Run(); err != nil {
		t.Fatal(err)
	}
}

func TestRingDoubleReleasePanics(t *testing.T) {
	e := sim.NewEngine(7)
	r := New(e, &stubQueue{e: e}, Config{SQSize: 2, BufSize: 512})
	buf, _ := r.Claim()
	r.Release(buf)
	defer func() {
		if recover() == nil {
			t.Fatal("double release did not panic")
		}
	}()
	r.Release(buf)
}
