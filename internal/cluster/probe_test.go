package cluster

import (
	"testing"
	"time"

	"nvmeoaf/internal/nvme"
	"nvmeoaf/internal/sim"
	"nvmeoaf/internal/transport"
)

// hangTarget is a fake member whose commands HANG (stay unresolved)
// while down, modelling a transport nursing commands through a
// reconnect loop instead of failing them. The test resolves the parked
// futures explicitly, replaying late and out-of-order feedback.
type hangTarget struct {
	e      *sim.Engine
	lat    time.Duration
	hang   bool
	parked []*sim.Future[*transport.Result]
}

func (q *hangTarget) SubmitInto(p *sim.Proc, io *transport.IO, fut *sim.Future[*transport.Result]) {
	if q.hang {
		q.parked = append(q.parked, fut)
		return
	}
	lat := q.lat
	q.e.After(lat, func() {
		fut.Resolve(&transport.Result{Status: nvme.StatusSuccess, Latency: lat})
	})
}

func (q *hangTarget) RingDoorbell(*sim.Proc) {}
func (q *hangTarget) Close()                 {}

// hangRig builds a 2-member cluster whose second member hangs on demand.
func hangRig(t *testing.T, e *sim.Engine, opts Options) (*Cluster, *hangTarget) {
	t.Helper()
	ht := &hangTarget{e: e, lat: 10 * time.Microsecond}
	members := []Member{
		{Name: "m0", Queue: newFakeTarget(e, "m0", 1<<20, 10*time.Microsecond)},
		{Name: "m1", Queue: ht},
	}
	opts.RetainData = true
	c, err := New(e, members, opts)
	if err != nil {
		t.Fatalf("New: %v", err)
	}
	return c, ht
}

// Regression: several overlapping hung probes that later resolve out of
// order must not flap the health streak a newer probe established. Here
// two consecutive probes hang (declaring the member dead), the target
// revives and a fresh probe re-admits it — then the two stale probes
// finally resolve with failures. Pre-fix those stale failures counted
// two fresh misses and declared the healthy member dead again.
func TestStaleProbeResolutionsDoNotFlapRevivedMember(t *testing.T) {
	e := sim.NewEngine(41)
	c, ht := hangRig(t, e, Options{
		Replicas: 2, WriteQuorum: 1, ExtentSize: 4096,
		ProbeInterval: 50 * time.Microsecond,
		ProbeTimeout:  150 * time.Microsecond,
		ProbeMisses:   2,
	})
	run(t, e, func(p *sim.Proc) {
		defer c.Close()
		ht.hang = true
		// Probe 1 fires at 50us and times out at 200us (miss 1); probe 2
		// fires at 250us and times out at 400us (miss 2 -> dead).
		p.Sleep(410 * time.Microsecond)
		if got := c.Stats().ReplicaDowns; got != 1 {
			t.Fatalf("replica downs before revival = %d, want 1", got)
		}
		if len(ht.parked) < 2 {
			t.Fatalf("parked probes = %d, want >= 2 hung probes", len(ht.parked))
		}
		// The target restarts: the next probe answers and revives it.
		ht.hang = false
		p.Sleep(100 * time.Microsecond)
		st := c.Stats()
		if st.ReplicaUps != 1 {
			t.Fatalf("replica ups after revival = %d, want 1", st.ReplicaUps)
		}
		// Now the two old hung probes resolve, newest first, both with
		// typed failures. They predate the revival streak and must be
		// dropped as stale.
		ht.parked[1].Resolve(&transport.Result{Status: nvme.StatusTransientTransport})
		ht.parked[0].Resolve(&transport.Result{Status: nvme.StatusTransientTransport})
		p.Sleep(20 * time.Microsecond)
		st = c.Stats()
		if st.ReplicaDowns != 1 {
			t.Errorf("replica downs = %d, want 1: stale probe resolutions re-killed a healthy member", st.ReplicaDowns)
		}
		for _, m := range st.Members {
			if m.Name == "m1" && !m.Alive {
				t.Errorf("member m1 flapped dead after stale probe feedback")
			}
		}
	})
}

// Regression: Close must fence in-flight feedback before the member
// queues close. A write parked on a hung (and meanwhile declared-dead)
// member that completes during teardown must not revive the member —
// pre-fix that late success re-seated it, counted a replica_up, and
// logged rebuild fault events against a cluster that was going away.
func TestCloseFencesLateFeedbackFromHungMember(t *testing.T) {
	e := sim.NewEngine(42)
	c, ht := hangRig(t, e, Options{
		Replicas: 2, WriteQuorum: 1, ExtentSize: 4096,
		ProbeInterval: 50 * time.Microsecond,
		ProbeTimeout:  150 * time.Microsecond,
		ProbeMisses:   2,
	})
	run(t, e, func(p *sim.Proc) {
		// The member hangs BEFORE the write, so one replica copy parks on
		// it while the quorum completes on the survivor.
		ht.hang = true
		r := transport.Submit(p, c, &transport.IO{Write: true, Offset: 0, Size: 4096, Data: pattern(7, 4096)}).Wait(p)
		if r.Status != nvme.StatusSuccess {
			t.Fatalf("quorum write: %v", r.Status)
		}
		// Two hung probes declare the member dead.
		p.Sleep(410 * time.Microsecond)
		if got := c.Stats().ReplicaDowns; got != 1 {
			t.Fatalf("replica downs = %d, want 1", got)
		}
		parked := append([]*sim.Future[*transport.Result](nil), ht.parked...)
		c.Close()
		// Teardown completes the parked commands (the write succeeds, the
		// probes fail) — none of it may touch the health state now.
		for i, fut := range parked {
			if i == 0 {
				fut.Resolve(&transport.Result{Status: nvme.StatusSuccess})
			} else {
				fut.Resolve(&transport.Result{Status: nvme.StatusTransientTransport})
			}
		}
		st := c.Stats()
		if st.ReplicaUps != 0 {
			t.Errorf("replica ups = %d after Close, want 0: late success revived a member mid-teardown", st.ReplicaUps)
		}
		if st.ReplicaDowns != 1 {
			t.Errorf("replica downs = %d after Close, want 1: teardown feedback counted spurious misses", st.ReplicaDowns)
		}
	})
}
