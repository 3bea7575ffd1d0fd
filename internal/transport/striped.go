package transport

import (
	"nvmeoaf/internal/sim"
)

// DefaultStripeUnit is the striping granularity when the caller does not
// choose one: small I/Os at consecutive stripe-unit offsets rotate
// round-robin across member queues, large I/Os split at these boundaries.
const DefaultStripeUnit = 128 << 10

// StripedQueue stripes I/O across M independent member queues, each with
// its own reactor (and, on the adaptive fabric, its own shared-memory
// region), the way SPDK spreads qpairs across cores.
//
// Placement is deterministic in the offset: stripe unit u of the address
// space belongs to member u mod M. Small I/Os (contained in one stripe
// unit) are forwarded whole — consecutive units rotate round-robin across
// members while every offset always maps to the same member, preserving
// per-offset read-your-write ordering without cross-queue synchronization.
// Large I/Os are segment-split at stripe boundaries, issued to their
// owning members concurrently, and completed through an aggregated future
// (status: first error; timing: slowest segment).
type StripedQueue struct {
	members    []Queue
	stripeUnit int64
}

// NewStriped builds a striped queue over members. stripeUnit <= 0 selects
// DefaultStripeUnit; the unit is rounded up to a BlockSize multiple so
// segment cuts stay block-aligned.
func NewStriped(stripeUnit int, members ...Queue) *StripedQueue {
	if len(members) == 0 {
		panic("transport: striped queue needs at least one member")
	}
	if stripeUnit <= 0 {
		stripeUnit = DefaultStripeUnit
	}
	if rem := stripeUnit % BlockSize; rem != 0 {
		stripeUnit += BlockSize - rem
	}
	return &StripedQueue{members: members, stripeUnit: int64(stripeUnit)}
}

// MemberHealth reports each member's condition, in NewStriped's order.
// A member that degraded mid-stream (e.g. a revoked shared-memory region
// failed it over to TCP) still serves its stripe units, but its slice
// entry says HealthDegraded so operators can see which queue is on the
// fallback path.
func (s *StripedQueue) MemberHealth() []Health {
	out := make([]Health, len(s.members))
	for i, m := range s.members {
		out[i] = HealthOf(m)
	}
	return out
}

// queueFor maps a byte offset to its owning member.
func (s *StripedQueue) queueFor(offset int64) int {
	u := offset / s.stripeUnit
	return int(u % int64(len(s.members)))
}

// SubmitInto implements Queue. An I/O contained in one stripe unit is
// forwarded whole, caller-owned future and all, to the member owning its
// offset (admin commands to member 0). A larger one is cut at stripe
// boundaries, each segment staged on its owning member, and fut resolves
// once every segment has (AggregateResults).
func (s *StripedQueue) SubmitInto(p *sim.Proc, io *IO, fut *sim.Future[*Result]) {
	if len(s.members) == 1 || SpanCount(io, s.stripeUnit) == 1 {
		m := 0
		if io.Admin == 0 {
			m = s.queueFor(io.Offset)
		}
		s.members[m].SubmitInto(p, io, fut)
		return
	}
	segs := SplitAt(io, s.stripeUnit)
	futs := make([]*sim.Future[*Result], len(segs))
	for i, seg := range segs {
		futs[i] = sim.NewFuture[*Result](p.Engine())
		s.members[s.queueFor(seg.Offset)].SubmitInto(p, seg, futs[i])
	}
	AggregateResults(fut, io, segs, futs)
}

// RingDoorbell implements Queue: each member's share of the staged train
// is one doorbell, rung in member order (a member with nothing staged
// costs nothing).
func (s *StripedQueue) RingDoorbell(p *sim.Proc) {
	for _, m := range s.members {
		m.RingDoorbell(p)
	}
}

// Close closes every member; outstanding requests complete first.
func (s *StripedQueue) Close() {
	for _, m := range s.members {
		m.Close()
	}
}
