package cluster

import (
	"bytes"
	"fmt"
	"testing"
	"time"

	"nvmeoaf/internal/nvme"
	"nvmeoaf/internal/ring"
	"nvmeoaf/internal/sim"
	"nvmeoaf/internal/transport"
)

// fakeTarget is a controllable in-memory member: it applies I/O to a
// byte store at completion time (like a real target), completes after a
// fixed latency, and fails everything with a typed transient error
// while down.
type fakeTarget struct {
	e       *sim.Engine
	name    string
	store   []byte
	lat     time.Duration
	down    bool
	submits int
	writes  int
}

func newFakeTarget(e *sim.Engine, name string, capacity int, lat time.Duration) *fakeTarget {
	return &fakeTarget{e: e, name: name, store: make([]byte, capacity), lat: lat}
}

func (q *fakeTarget) SubmitInto(p *sim.Proc, io *transport.IO, fut *sim.Future[*transport.Result]) {
	q.submits++
	lat := q.lat
	down := q.down
	q.e.After(lat, func() {
		if down || q.down {
			fut.Resolve(&transport.Result{Status: nvme.StatusTransientTransport, Latency: lat})
			return
		}
		res := &transport.Result{Status: nvme.StatusSuccess, Latency: lat, IOTime: lat / 2}
		if io.Admin != 0 || io.Flush {
			fut.Resolve(res)
			return
		}
		if io.Write {
			q.writes++
			if io.Data != nil {
				copy(q.store[io.Offset:], io.Data)
			}
		} else if io.Data != nil {
			copy(io.Data, q.store[io.Offset:int(io.Offset)+io.Size])
			res.Data = io.Data[:io.Size]
		}
		fut.Resolve(res)
	})
}

func (q *fakeTarget) RingDoorbell(*sim.Proc) {}
func (q *fakeTarget) Close()                 {}

// onRig, when set, sees every cluster rig builds (the stale-index
// oracle watches the scenarios below through it).
var onRig func(*Cluster)

// rig builds a cluster over n fake targets with the given options.
func rig(t *testing.T, e *sim.Engine, n int, capacity int, opts Options) (*Cluster, []*fakeTarget) {
	t.Helper()
	fakes := make([]*fakeTarget, n)
	members := make([]Member, n)
	for i := range fakes {
		fakes[i] = newFakeTarget(e, fmt.Sprintf("m%d", i), capacity, 10*time.Microsecond)
		members[i] = Member{Name: fakes[i].name, Queue: fakes[i]}
	}
	opts.RetainData = true
	c, err := New(e, members, opts)
	if err != nil {
		t.Fatalf("New: %v", err)
	}
	if onRig != nil {
		onRig(c)
	}
	return c, fakes
}

func run(t *testing.T, e *sim.Engine, fn func(p *sim.Proc)) {
	t.Helper()
	e.Go("test", fn)
	if err := e.Run(); err != nil {
		t.Fatalf("sim: %v", err)
	}
}

func pattern(b byte, n int) []byte { return bytes.Repeat([]byte{b}, n) }

func TestRingPlacementDeterministicDistinctBalanced(t *testing.T) {
	r := NewRing(4, 2)
	counts := make([]int, 4)
	for ext := int64(0); ext < 4096; ext++ {
		a := r.Locate(ext, make([]int, 0, 2))
		b := r.Locate(ext, make([]int, 0, 2))
		if len(a) != 2 || a[0] == a[1] {
			t.Fatalf("extent %d: want 2 distinct seats, got %v", ext, a)
		}
		if a[0] != b[0] || a[1] != b[1] {
			t.Fatalf("extent %d: placement not deterministic: %v vs %v", ext, a, b)
		}
		counts[a[0]]++
	}
	for s, n := range counts {
		// Each seat should own roughly 1/4 of primaries; allow 2x skew.
		if n < 4096/8 || n > 4096/2 {
			t.Fatalf("seat %d owns %d/4096 primaries; placement badly skewed: %v", s, n, counts)
		}
	}
}

func TestQuorumWriteThenReadYourWrite(t *testing.T) {
	e := sim.NewEngine(1)
	c, fakes := rig(t, e, 3, 1<<20, Options{Replicas: 3, WriteQuorum: 2, ExtentSize: 4096})
	run(t, e, func(p *sim.Proc) {
		defer c.Close()
		want := pattern(0xAB, 4096)
		if r := transport.Submit(p, c, &transport.IO{Write: true, Offset: 8192, Size: 4096, Data: want}).Wait(p); r.Status != nvme.StatusSuccess {
			t.Fatalf("write: %v", r.Status)
		}
		buf := make([]byte, 4096)
		r := transport.Submit(p, c, &transport.IO{Offset: 8192, Size: 4096, Data: buf}).Wait(p)
		if r.Status != nvme.StatusSuccess {
			t.Fatalf("read: %v", r.Status)
		}
		if !bytes.Equal(r.Data, want) {
			t.Fatalf("read returned wrong bytes")
		}
	})
	st := c.Stats()
	if st.Writes != 1 || st.Reads != 1 {
		t.Fatalf("stats: writes=%d reads=%d, want 1/1", st.Writes, st.Reads)
	}
	// All three replicas eventually receive the write (laggard included).
	wrote := 0
	for _, f := range fakes {
		wrote += f.writes
	}
	if wrote != 3 {
		t.Fatalf("replica writes = %d, want 3 (full fan-out)", wrote)
	}
}

func TestLargeIOSplitsAcrossExtentsAndReassembles(t *testing.T) {
	e := sim.NewEngine(2)
	c, _ := rig(t, e, 4, 1<<20, Options{Replicas: 2, ExtentSize: 4096})
	run(t, e, func(p *sim.Proc) {
		defer c.Close()
		want := make([]byte, 3*4096)
		for i := range want {
			want[i] = byte(i / 512)
		}
		if r := transport.Submit(p, c, &transport.IO{Write: true, Offset: 4096, Size: len(want), Data: want}).Wait(p); r.Status != nvme.StatusSuccess {
			t.Fatalf("write: %v", r.Status)
		}
		buf := make([]byte, len(want))
		r := transport.Submit(p, c, &transport.IO{Offset: 4096, Size: len(buf), Data: buf}).Wait(p)
		if r.Status != nvme.StatusSuccess {
			t.Fatalf("read: %v", r.Status)
		}
		if !bytes.Equal(r.Data, want) {
			t.Fatalf("reassembled read mismatch")
		}
	})
	if got := c.Stats().Extents; got != 3 {
		t.Fatalf("extents touched = %d, want 3", got)
	}
}

func TestWriteFailsFastWhenQuorumUnreachable(t *testing.T) {
	e := sim.NewEngine(3)
	c, fakes := rig(t, e, 2, 1<<20, Options{Replicas: 2, WriteQuorum: 2, ExtentSize: 4096, ProbeMisses: 1})
	run(t, e, func(p *sim.Proc) {
		defer c.Close()
		// Kill member 1 and let a first write burn its misses so the
		// cluster declares it dead.
		fakes[1].down = true
		transport.Submit(p, c, &transport.IO{Write: true, Offset: 0, Size: 4096, Data: pattern(1, 4096)}).Wait(p)
		// Now only one live replica remains; W=2 is unreachable.
		r := transport.Submit(p, c, &transport.IO{Write: true, Offset: 0, Size: 4096, Data: pattern(2, 4096)}).Wait(p)
		if r.Status == nvme.StatusSuccess {
			t.Fatalf("write succeeded with quorum unreachable")
		}
	})
	st := c.Stats()
	if st.QuorumFails == 0 {
		t.Fatalf("expected quorum failures, got stats %+v", st)
	}
	if st.ReplicaDowns != 1 {
		t.Fatalf("replica downs = %d, want 1", st.ReplicaDowns)
	}
}

func TestReadFailsOverToSurvivingReplica(t *testing.T) {
	e := sim.NewEngine(4)
	c, fakes := rig(t, e, 3, 1<<20, Options{Replicas: 3, WriteQuorum: 2, ExtentSize: 4096, ProbeMisses: 2})
	run(t, e, func(p *sim.Proc) {
		defer c.Close()
		want := pattern(0x5A, 4096)
		if r := transport.Submit(p, c, &transport.IO{Write: true, Offset: 0, Size: 4096, Data: want}).Wait(p); r.Status != nvme.StatusSuccess {
			t.Fatalf("write: %v", r.Status)
		}
		p.Sleep(time.Millisecond) // let the lagging third replica ack
		fakes[0].down = true
		fakes[1].down = true
		// Every read must land on the one survivor, possibly after
		// failing over from a dead pick.
		for i := 0; i < 6; i++ {
			buf := make([]byte, 4096)
			r := transport.Submit(p, c, &transport.IO{Offset: 0, Size: 4096, Data: buf}).Wait(p)
			if r.Status != nvme.StatusSuccess {
				t.Fatalf("read %d: %v", i, r.Status)
			}
			if !bytes.Equal(r.Data, want) {
				t.Fatalf("read %d: stale bytes after failover", i)
			}
		}
	})
	if c.Stats().ReadFailovers == 0 {
		t.Fatalf("expected read failovers, got %+v", c.Stats())
	}
}

func TestSpareInheritsSeatAndRebuildCopies(t *testing.T) {
	e := sim.NewEngine(5)
	// 3 seats + 1 spare, R=2 W=2: losing one member promotes the spare.
	c, fakes := rig(t, e, 4, 1<<20, Options{
		Seats: 3, Replicas: 2, WriteQuorum: 2, ExtentSize: 4096,
		ProbeInterval: 50 * time.Microsecond, ProbeMisses: 2,
	})
	const extents = 12
	run(t, e, func(p *sim.Proc) {
		defer c.Close()
		for i := 0; i < extents; i++ {
			data := pattern(byte(i+1), 4096)
			if r := transport.Submit(p, c, &transport.IO{Write: true, Offset: int64(i) * 4096, Size: 4096, Data: data}).Wait(p); r.Status != nvme.StatusSuccess {
				t.Fatalf("write %d: %v", i, r.Status)
			}
		}
		fakes[0].down = true
		// Probes need ProbeMisses consecutive failures; each failed probe
		// takes ~lat. Give the monitor and rebuild loop time to finish.
		p.Sleep(5 * time.Millisecond)
		if got := c.Stats().StaleExtents; got != 0 {
			t.Fatalf("stale extents after rebuild window = %d, want 0", got)
		}
		// Every extent must read back correctly with member 0 still down.
		for i := 0; i < extents; i++ {
			buf := make([]byte, 4096)
			r := transport.Submit(p, c, &transport.IO{Offset: int64(i) * 4096, Size: 4096, Data: buf}).Wait(p)
			if r.Status != nvme.StatusSuccess {
				t.Fatalf("read %d after failover: %v", i, r.Status)
			}
			if !bytes.Equal(r.Data, pattern(byte(i+1), 4096)) {
				t.Fatalf("read %d: wrong bytes after rebuild", i)
			}
		}
	})
	st := c.Stats()
	if st.ReplicaDowns != 1 {
		t.Fatalf("replica downs = %d, want 1", st.ReplicaDowns)
	}
	if st.RebuildExtents == 0 {
		t.Fatalf("expected rebuild copies, got %+v", st)
	}
	// The spare must now hold a seat.
	spareSeated := false
	for _, m := range st.Members {
		if m.Name == "m3" && m.Seat >= 0 {
			spareSeated = true
		}
	}
	if !spareSeated {
		t.Fatalf("spare was not promoted: %+v", st.Members)
	}
}

func TestRevivedMemberResumesSeatAndCatchesUp(t *testing.T) {
	e := sim.NewEngine(6)
	// No spare: R=3 W=2 over 3 seats keeps writes flowing with one down.
	c, fakes := rig(t, e, 3, 1<<20, Options{
		Replicas: 3, WriteQuorum: 2, ExtentSize: 4096,
		ProbeInterval: 50 * time.Microsecond, ProbeMisses: 2,
	})
	run(t, e, func(p *sim.Proc) {
		defer c.Close()
		writeAt := func(i int, b byte) {
			if r := transport.Submit(p, c, &transport.IO{Write: true, Offset: int64(i) * 4096, Size: 4096, Data: pattern(b, 4096)}).Wait(p); r.Status != nvme.StatusSuccess {
				t.Fatalf("write %d: %v", i, r.Status)
			}
		}
		for i := 0; i < 8; i++ {
			writeAt(i, byte(i+1))
		}
		fakes[1].down = true
		p.Sleep(time.Millisecond) // death detected
		// Writes while member 1 is down: it misses these versions.
		for i := 0; i < 8; i++ {
			writeAt(i, byte(0x80+i))
		}
		// A dead member's replicas are no rebuild backlog: nothing can be
		// copied to them until it serves its seat again.
		if got := c.Stats().StaleExtents; got != 0 {
			t.Fatalf("stale extents with member 1 dead = %d, want 0", got)
		}
		fakes[1].down = false
		p.Sleep(5 * time.Millisecond) // revival + rebuild
		st := c.Stats()
		if st.StaleExtents != 0 {
			t.Fatalf("stale extents after revival = %d, want 0 (stats %+v)", st.StaleExtents, st)
		}
		if st.ReplicaUps == 0 {
			t.Fatalf("expected a replica_up, got %+v", st)
		}
		// Member 1 must hold the latest committed bytes for every extent
		// it replicates (rebuild caught it up).
		for i := 0; i < 8; i++ {
			ext := c.extentFor(int64(i) * 4096)
			for _, rs := range c.extents[ext].repl {
				ms := c.occupant(rs.seat)
				if ms == nil || ms.name != "m1" {
					continue
				}
				got := fakes[1].store[i*4096 : i*4096+4096]
				if !bytes.Equal(got, pattern(byte(0x80+i), 4096)) {
					t.Fatalf("extent %d not rebuilt on revived member", i)
				}
			}
		}
	})
}

func TestOverlappingWritesApplyInVersionOrder(t *testing.T) {
	e := sim.NewEngine(7)
	c, fakes := rig(t, e, 2, 1<<20, Options{Replicas: 2, WriteQuorum: 1, ExtentSize: 4096})
	// Slow one replica so the first write is still in flight when the
	// second is issued: the per-(extent, seat) chain must keep them in
	// order on that replica.
	fakes[1].lat = 500 * time.Microsecond
	run(t, e, func(p *sim.Proc) {
		defer c.Close()
		a := transport.Submit(p, c, &transport.IO{Write: true, Offset: 0, Size: 4096, Data: pattern(1, 4096)})
		b := transport.Submit(p, c, &transport.IO{Write: true, Offset: 0, Size: 4096, Data: pattern(2, 4096)})
		a.Wait(p)
		b.Wait(p)
		p.Sleep(5 * time.Millisecond) // drain the slow replica's chain
		for i, f := range fakes {
			if !bytes.Equal(f.store[:4096], pattern(2, 4096)) {
				t.Fatalf("replica %d holds stale version after overlapped writes", i)
			}
		}
	})
}

func TestBatchReadsGroupPerMember(t *testing.T) {
	e := sim.NewEngine(8)
	c, _ := rig(t, e, 4, 1<<20, Options{Replicas: 2, ExtentSize: 4096})
	run(t, e, func(p *sim.Proc) {
		defer c.Close()
		var ios []*transport.IO
		for i := 0; i < 16; i++ {
			if r := transport.Submit(p, c, &transport.IO{Write: true, Offset: int64(i) * 4096, Size: 4096, Data: pattern(byte(i+1), 4096)}).Wait(p); r.Status != nvme.StatusSuccess {
				t.Fatalf("write %d: %v", i, r.Status)
			}
			ios = append(ios, &transport.IO{Offset: int64(i) * 4096, Size: 4096, Data: make([]byte, 4096)})
		}
		futs := transport.SubmitBatch(p, c, ios, nil)
		for i, f := range futs {
			r := f.Wait(p)
			if r.Status != nvme.StatusSuccess {
				t.Fatalf("batch read %d: %v", i, r.Status)
			}
			if !bytes.Equal(r.Data, pattern(byte(i+1), 4096)) {
				t.Fatalf("batch read %d: wrong bytes", i)
			}
		}
	})
	if got := c.Stats().Reads; got != 16 {
		t.Fatalf("reads = %d, want 16", got)
	}
}

// The same I/O list — reads and writes, extent-contained and spanning —
// completes once each and with the same statuses whether the future
// adapters or a ring drive it, over a striped group (one member down, so
// its stripe units fail under both drivers) and over the replicated
// router.
func TestRingMatchesFuturesOverCompositions(t *testing.T) {
	const unit = 64 << 10
	var ios []transport.IO
	for i := 0; i < 6; i++ {
		ios = append(ios,
			transport.IO{Write: true, Offset: int64(i) * unit, Size: 4096},
			transport.IO{Offset: int64(i) * unit, Size: 4096},
			transport.IO{Write: i%2 == 0, Offset: int64(i+1)*unit - 4096, Size: 8192}) // spans two units
	}
	compositions := map[string]func(e *sim.Engine) transport.Queue{
		"striped": func(e *sim.Engine) transport.Queue {
			members := make([]transport.Queue, 3)
			for i := range members {
				members[i] = newFakeTarget(e, fmt.Sprintf("m%d", i), 1<<20, 10*time.Microsecond)
			}
			members[1].(*fakeTarget).down = true
			return transport.NewStriped(unit, members...)
		},
		"replicated": func(e *sim.Engine) transport.Queue {
			c, _ := rig(t, e, 3, 1<<20, Options{Replicas: 2, ExtentSize: unit})
			return c
		},
	}
	for name, build := range compositions {
		t.Run(name, func(t *testing.T) {
			drive := func(ringMode bool) []nvme.Status {
				e := sim.NewEngine(9)
				q := build(e)
				got := make([]nvme.Status, 0, len(ios))
				run(t, e, func(p *sim.Proc) {
					defer q.Close()
					if !ringMode {
						list := make([]*transport.IO, len(ios))
						for i := range ios {
							io := ios[i]
							list[i] = &io
						}
						for _, fut := range transport.SubmitBatch(p, q, list, nil) {
							got = append(got, fut.Wait(p).Status)
						}
						return
					}
					r := ring.New(e, q, ring.Config{SQSize: len(ios), Buffers: 1, BufSize: 512})
					for i, io := range ios {
						r.Push(ring.SQE{Write: io.Write, Offset: io.Offset, Size: io.Size, UserData: uint64(i)})
					}
					if n := r.Submit(p); n != len(ios) {
						t.Fatalf("ring admitted %d of %d", n, len(ios))
					}
					cq := make([]ring.CQE, 2*len(ios))
					n := r.Reap(p, cq, len(ios))
					if extra := r.Reap(p, cq[n:], 1); n != len(ios) || extra != 0 {
						t.Fatalf("ring completed %d+%d of %d", n, extra, len(ios))
					}
					got = got[:len(ios)]
					for _, c := range cq[:n] {
						got[c.UserData] = c.Status
					}
				})
				return got
			}
			fu, ri := drive(false), drive(true)
			failed := 0
			for i := range ios {
				if fu[i] != ri[i] {
					t.Errorf("io %d (%+v): futures %v, ring %v", i, ios[i], fu[i], ri[i])
				}
				if fu[i] != nvme.StatusSuccess {
					failed++
				}
			}
			if wantFail := name == "striped"; (failed > 0) != wantFail {
				t.Errorf("%d failed commands", failed)
			}
		})
	}
}
