package cluster

import (
	"testing"
	"time"

	"nvmeoaf/internal/nvme"
	"nvmeoaf/internal/sim"
	"nvmeoaf/internal/telemetry"
	"nvmeoaf/internal/transport"
)

// stubMember is an allocation-free member: it completes each command
// into the caller's IO, inline or, while park is set, when the test calls
// release. Reads fail with a non-retryable status (a command error, not a
// death signal) while *failReads is positive, and every command fails
// inline with fail when it is set.
type stubMember struct {
	park      bool
	failReads *int
	fail      nvme.Status
	parked    []parkedIO
}

type parkedIO struct {
	io  *transport.IO
	fut *sim.Future[*transport.Result]
}

func (q *stubMember) SubmitInto(p *sim.Proc, io *transport.IO, fut *sim.Future[*transport.Result]) {
	if q.fail != nvme.StatusSuccess {
		io.Complete(fut, transport.Result{Status: q.fail})
		return
	}
	if !io.Write && *q.failReads > 0 {
		*q.failReads--
		io.Complete(fut, transport.Result{Status: nvme.StatusInternalError})
		return
	}
	if q.park {
		q.parked = append(q.parked, parkedIO{io, fut})
		return
	}
	io.Complete(fut, transport.Result{Status: nvme.StatusSuccess, Latency: time.Microsecond})
}

func (q *stubMember) RingDoorbell(*sim.Proc) {}
func (q *stubMember) Close()                 {}

// release completes every parked command, oldest first.
func (q *stubMember) release() {
	n := len(q.parked)
	for _, pi := range q.parked[:n] {
		pi.io.Complete(pi.fut, transport.Result{Status: nvme.StatusSuccess, Latency: time.Microsecond})
	}
	q.parked = append(q.parked[:0], q.parked[n:]...)
}

// TestRouterAllocatesNothing is the router's allocation gate: at steady
// state a single-extent read, a quorum write, a write chained behind an
// in-flight write to the same replicas, and a read that fails over to a
// second replica allocate nothing. Op records are recycled, their member
// futures re-armed and their callbacks bound once; the caller's IO holds
// the result.
func TestRouterAllocatesNothing(t *testing.T) {
	e := sim.NewEngine(1)
	failReads := 0
	stubs := make([]*stubMember, 3)
	members := make([]Member, len(stubs))
	for i := range stubs {
		stubs[i] = &stubMember{failReads: &failReads}
		members[i] = Member{Name: string(rune('a' + i)), Queue: stubs[i]}
	}
	c, err := New(e, members, Options{Replicas: 3, WriteQuorum: 2, ExtentSize: 4096, Telemetry: telemetry.New()})
	if err != nil {
		t.Fatal(err)
	}
	park := func(on bool) {
		for _, s := range stubs {
			s.park = on
		}
	}
	release := func() {
		for _, s := range stubs {
			s.release()
		}
	}
	var ios [2]transport.IO
	var futs [2]sim.Future[*transport.Result]
	// submit starts op i and returns its future; the router rings members
	// itself for writes, the caller's doorbell sends staged reads.
	submit := func(p *sim.Proc, i int, write bool) *sim.Future[*transport.Result] {
		ios[i] = transport.IO{Write: write, Offset: 8192, Size: 4096}
		futs[i].Arm(e)
		c.SubmitInto(p, &ios[i], &futs[i])
		c.RingDoorbell(p)
		return &futs[i]
	}
	check := func(f *sim.Future[*transport.Result]) {
		if r, ok := f.Value(); !ok || r.Status != nvme.StatusSuccess {
			t.Fatalf("op did not succeed: resolved=%v %+v", ok, r)
		}
	}
	cases := []struct {
		name string
		op   func(p *sim.Proc)
	}{
		{"read", func(p *sim.Proc) { check(submit(p, 0, false)) }},
		{"quorum write", func(p *sim.Proc) { check(submit(p, 0, true)) }},
		{"chained write", func(p *sim.Proc) {
			park(true)
			a := submit(p, 0, true)
			b := submit(p, 1, true) // waits on a's chain at every replica
			if n := len(stubs[0].parked); n != 1 {
				t.Fatalf("%d writes on the wire, want a alone", n)
			}
			release()
			check(a)
			p.Sleep(0) // the worker issues b's replica writes
			release()
			park(false)
			check(b)
			p.Sleep(0)
		}},
		{"failover read", func(p *sim.Proc) {
			failReads = 1
			f := submit(p, 0, false)
			p.Sleep(0) // the worker re-drives the read on a second replica
			check(f)
		}},
	}
	e.Go("app", func(p *sim.Proc) {
		defer c.Close()
		check(submit(p, 0, true)) // commit the extent first
		p.Sleep(0)
		for _, tc := range cases {
			before := c.Stats()
			tc.op(p) // warm up: records, chain and queue capacity
			allocs := testing.AllocsPerRun(100, func() { tc.op(p) })
			if allocs != 0 {
				t.Errorf("%s: router allocates %.1f objects per op, want 0", tc.name, allocs)
			}
			after := c.Stats()
			// 102 runs: the warm-up, AllocsPerRun's own warm-up and 100.
			if tc.name == "failover read" && after.ReadFailovers-before.ReadFailovers != 102 {
				t.Errorf("failover read: %d failovers in 102 reads", after.ReadFailovers-before.ReadFailovers)
			}
			if after.ReplicaDowns != 0 || after.StaleExtents != 0 {
				t.Errorf("%s: cluster left unhealthy: %+v", tc.name, after)
			}
		}
	})
	if err := e.Run(); err != nil {
		t.Fatal(err)
	}
}

// A write that can reach too few live replicas for its quorum fails once,
// even when the one replica it does issue fails before submitWrite has
// finished fanning out (a member queue refuses a command inline).
func TestQuorumUnreachableResolvesOnce(t *testing.T) {
	e := sim.NewEngine(1)
	failReads := 0
	stubs := make([]*stubMember, 3)
	members := make([]Member, len(stubs))
	for i := range stubs {
		stubs[i] = &stubMember{failReads: &failReads}
		members[i] = Member{Name: string(rune('a' + i)), Queue: stubs[i]}
	}
	c, err := New(e, members, Options{Replicas: 3, WriteQuorum: 2, ExtentSize: 4096, ProbeMisses: 1})
	if err != nil {
		t.Fatal(err)
	}
	e.Go("app", func(p *sim.Proc) {
		defer c.Close()
		write := func() nvme.Status {
			return transport.Submit(p, c, &transport.IO{Write: true, Offset: 0, Size: 4096}).Wait(p).Status
		}
		stubs[0].fail, stubs[1].fail = nvme.StatusTransientTransport, nvme.StatusTransientTransport
		if st := write(); st == nvme.StatusSuccess {
			t.Fatalf("write with two replicas failing succeeded")
		}
		stubs[2].fail = nvme.StatusTransientTransport
		if st := write(); st != nvme.StatusTransientTransport {
			t.Errorf("write issued to one failing replica: %v, want its error", st)
		}
		if got := c.Stats().QuorumFails; got != 2 {
			t.Errorf("quorum failures = %d, want 2", got)
		}
	})
	if err := e.Run(); err != nil {
		t.Fatal(err)
	}
}
