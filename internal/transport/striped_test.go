package transport

import (
	"bytes"
	"testing"
	"time"

	"nvmeoaf/internal/nvme"
	"nvmeoaf/internal/sim"
)

// memQueue is an in-memory member for striping tests: it stores write
// payloads, serves reads after a settable latency with a settable status,
// counts doorbells, and reports a settable health.
type memQueue struct {
	e         *sim.Engine
	store     []byte
	health    Health
	ios       int
	doorbells int
	lat       time.Duration
	status    nvme.Status
}

func newMemQueue(e *sim.Engine, capacity int) *memQueue {
	return &memQueue{e: e, store: make([]byte, capacity), lat: time.Microsecond}
}

func (q *memQueue) SubmitInto(p *sim.Proc, io *IO, fut *sim.Future[*Result]) {
	q.ios++
	q.e.After(q.lat, func() {
		res := &Result{Status: q.status, Latency: q.lat}
		if q.status == nvme.StatusSuccess && io.Admin == 0 && !io.Flush {
			if io.Write {
				copy(q.store[io.Offset:], io.Data)
			} else if io.Data != nil {
				copy(io.Data, q.store[io.Offset:int(io.Offset)+io.Size])
				res.Data = io.Data[:io.Size]
			}
		}
		fut.Resolve(res)
	})
}

func (q *memQueue) RingDoorbell(*sim.Proc) { q.doorbells++ }
func (q *memQueue) Close()                 {}
func (q *memQueue) Health() Health         { return q.health }

func TestStripedMemberHealthReportsPerMember(t *testing.T) {
	e := sim.NewEngine(1)
	const unit = 4096
	members := make([]Queue, 3)
	fakes := make([]*memQueue, 3)
	for i := range members {
		fakes[i] = newMemQueue(e, 1<<20)
		members[i] = fakes[i]
	}
	s := NewStriped(unit, members...)

	for _, h := range s.MemberHealth() {
		if h != HealthHealthy {
			t.Fatalf("fresh group member reports %v", h)
		}
	}

	// Degrade member 1: health must single it out while reads on its
	// stripe units keep serving (the failover-asymmetry regression —
	// a degraded member is still a live data path, not a dead one).
	fakes[1].health = HealthDegraded
	hs := s.MemberHealth()
	if hs[0] != HealthHealthy || hs[1] != HealthDegraded || hs[2] != HealthHealthy {
		t.Fatalf("member health = %v, want [healthy degraded healthy]", hs)
	}

	e.Go("io", func(p *sim.Proc) {
		want := bytes.Repeat([]byte{0x7E}, 512)
		// Offset unit*1 belongs to the degraded member 1.
		off := int64(unit)
		if r := Submit(p, s, &IO{Write: true, Offset: off, Size: len(want), Data: want}).Wait(p); r.Status != nvme.StatusSuccess {
			t.Errorf("write on degraded member: %v", r.Status)
		}
		buf := make([]byte, len(want))
		r := Submit(p, s, &IO{Offset: off, Size: len(buf), Data: buf}).Wait(p)
		if r.Status != nvme.StatusSuccess {
			t.Errorf("read on degraded member: %v", r.Status)
		}
		if !bytes.Equal(r.Data, want) {
			t.Errorf("degraded member returned wrong bytes")
		}
	})
	if err := e.Run(); err != nil {
		t.Fatal(err)
	}
	if fakes[1].ios != 2 {
		t.Fatalf("degraded member served %d I/Os, want 2 (it owns the stripe)", fakes[1].ios)
	}
}

func TestHealthOfAssumesHealthyForPlainQueues(t *testing.T) {
	e := sim.NewEngine(2)
	// A queue without a HealthReporter must read as healthy, not dead.
	var plain Queue = nopQueue{}
	if got := HealthOf(plain); got != HealthHealthy {
		t.Fatalf("HealthOf(plain) = %v", got)
	}
	q := newMemQueue(e, 0)
	q.health = HealthDead
	if got := HealthOf(q); got != HealthDead {
		t.Fatalf("HealthOf(reporter) = %v", got)
	}
}

type nopQueue struct{}

func (nopQueue) SubmitInto(*sim.Proc, *IO, *sim.Future[*Result]) {}
func (nopQueue) RingDoorbell(*sim.Proc)                          {}
func (nopQueue) Close()                                          {}

func TestSpanCountAndSplitAt(t *testing.T) {
	const unit = 4096
	cases := []struct {
		io   IO
		want int
	}{
		{IO{Offset: 0, Size: 4096}, 1},
		{IO{Offset: 512, Size: 4096}, 2},
		{IO{Offset: 4096, Size: 8192}, 2},
		{IO{Offset: 0, Size: 3 * 4096}, 3},
		{IO{Admin: 1}, 1},
		{IO{Flush: true}, 1},
	}
	for i, tc := range cases {
		if got := SpanCount(&tc.io, unit); got != tc.want {
			t.Errorf("case %d: SpanCount = %d, want %d", i, got, tc.want)
		}
	}

	// A split write sub-slices the payload in place, covering exactly
	// the original byte range with block-aligned cuts.
	data := make([]byte, 2*4096)
	for i := range data {
		data[i] = byte(i)
	}
	io := &IO{Write: true, Offset: 512, Size: len(data), Data: data}
	segs := SplitAt(io, unit)
	if len(segs) != 3 {
		t.Fatalf("split into %d segments, want 3", len(segs))
	}
	off, covered := io.Offset, 0
	for i, seg := range segs {
		if seg.Offset != off {
			t.Fatalf("segment %d offset = %d, want %d", i, seg.Offset, off)
		}
		if !bytes.Equal(seg.Data, data[covered:covered+seg.Size]) {
			t.Fatalf("segment %d payload not the matching sub-slice", i)
		}
		if i > 0 && seg.Offset%unit != 0 {
			t.Fatalf("segment %d cut at %d, not a unit boundary", i, seg.Offset)
		}
		off += int64(seg.Size)
		covered += seg.Size
	}
	if covered != io.Size {
		t.Fatalf("segments cover %d bytes, want %d", covered, io.Size)
	}

	// Single-segment I/O is forwarded whole, not copied.
	one := &IO{Offset: 0, Size: 4096}
	if segs := SplitAt(one, unit); len(segs) != 1 || segs[0] != one {
		t.Fatalf("single-segment split did not forward the original IO")
	}
}

func TestAggregateResultsMergesErrorAndTiming(t *testing.T) {
	e := sim.NewEngine(3)
	io := &IO{Offset: 0, Size: 8192, Data: make([]byte, 8192)}
	a := sim.NewFuture[*Result](e)
	b := sim.NewFuture[*Result](e)
	agg := sim.NewFuture[*Result](e)
	AggregateResults(agg, io, nil, []*sim.Future[*Result]{a, b})
	e.Go("resolve", func(p *sim.Proc) {
		a.Resolve(&Result{Status: nvme.StatusSuccess, Latency: time.Microsecond, IOTime: time.Microsecond})
		b.Resolve(&Result{Status: nvme.StatusDataTransferErr, Latency: 3 * time.Microsecond})
		r := agg.Wait(p)
		if r.Status != nvme.StatusDataTransferErr {
			t.Errorf("aggregate status = %v, want first error", r.Status)
		}
		if r.Latency != 3*time.Microsecond {
			t.Errorf("aggregate latency = %v, want slowest segment", r.Latency)
		}
	})
	if err := e.Run(); err != nil {
		t.Fatal(err)
	}
}

// A split I/O staged through SubmitInto resolves the CALLER's future —
// nothing is returned to swap in — with the slowest segment's timing and
// the lowest-offset failing segment's status; an unsplit one is handed to
// its member with that same future. One doorbell reaches every member.
func TestStripedSubmitIntoResolvesCallersFuture(t *testing.T) {
	e := sim.NewEngine(5)
	const unit = 4096
	fakes := make([]*memQueue, 3)
	members := make([]Queue, 3)
	for i := range fakes {
		fakes[i] = newMemQueue(e, 1<<20)
		members[i] = fakes[i]
	}
	fakes[1].lat, fakes[1].status = 7*time.Microsecond, nvme.StatusDataTransferErr
	fakes[2].lat, fakes[2].status = 3*time.Microsecond, nvme.StatusInvalidField
	s := NewStriped(unit, members...)
	e.Go("io", func(p *sim.Proc) {
		split := sim.NewFuture[*Result](e)
		whole := sim.NewFuture[*Result](e)
		// Units 0, 1, 2: one segment per member.
		s.SubmitInto(p, &IO{Offset: 0, Size: 3 * unit, Data: make([]byte, 3*unit)}, split)
		// Unit 3 belongs to member 0 again.
		s.SubmitInto(p, &IO{Offset: 3 * unit, Size: unit}, whole)
		s.RingDoorbell(p)
		r := split.Wait(p)
		if r.Status != nvme.StatusDataTransferErr {
			t.Errorf("split status = %v, want the lowest-offset failure (member 1's)", r.Status)
		}
		if r.Latency != 7*time.Microsecond {
			t.Errorf("split latency = %v, want the slowest segment's 7µs", r.Latency)
		}
		if r.Data != nil {
			t.Error("failed split read returned Data")
		}
		if r := whole.Wait(p); r.Status != nvme.StatusSuccess || r.Latency != time.Microsecond {
			t.Errorf("unsplit I/O: %+v, want member 0's own completion", r)
		}
	})
	if err := e.Run(); err != nil {
		t.Fatal(err)
	}
	for i, f := range fakes {
		if want := []int{2, 1, 1}[i]; f.ios != want || f.doorbells != 1 {
			t.Errorf("member %d: %d I/Os, %d doorbells; want %d and 1", i, f.ios, f.doorbells, want)
		}
	}
}
