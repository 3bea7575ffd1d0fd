package cluster

import "sort"

// The placement ring maps stripe-aligned extents onto R distinct seats
// out of N by consistent hashing: every seat owns a fixed set of virtual
// points on a 64-bit ring, an extent hashes to a ring position, and its
// replica set is the next R distinct seats clockwise from there.
//
// Seats — not members — are the unit of placement. A seat is a stable
// slot in the ring; the member occupying it can change (a spare inherits
// a dead member's seat), which re-targets every extent mapped to that
// seat without moving any other extent. That is what keeps failover and
// re-replication O(data on the lost replica) instead of O(cluster).

// mix64 is the splitmix64 finalizer: a fast, well-distributed 64-bit
// mixer that keeps ring placement deterministic across runs without
// touching the engine's seeded streams.
func mix64(x uint64) uint64 {
	x += 0x9e3779b97f4a7c15
	x = (x ^ (x >> 30)) * 0xbf58476d1ce4e5b9
	x = (x ^ (x >> 27)) * 0x94d049bb133111eb
	return x ^ (x >> 31)
}

// ringPoint is one virtual node: a hashed position owned by a seat.
type ringPoint struct {
	hash uint64
	seat int
}

// Ring is the consistent-hash placement table. It is immutable after
// construction: failover changes seat occupancy, never ring geometry.
type Ring struct {
	points   []ringPoint
	replicas int
}

// DefaultVnodes is the virtual-node count per seat: enough to keep the
// per-seat extent share within a few percent of uniform at N <= 16.
const DefaultVnodes = 64

// NewRing builds a ring of seats*DefaultVnodes points. replicas must not
// exceed seats.
func NewRing(seats, replicas int) *Ring {
	if seats <= 0 {
		panic("cluster: ring needs at least one seat")
	}
	if replicas <= 0 || replicas > seats {
		panic("cluster: replicas must be in [1, seats]")
	}
	if seats > 64 {
		panic("cluster: at most 64 seats (Locate tracks seats in a bitmap)")
	}
	r := &Ring{replicas: replicas}
	r.points = make([]ringPoint, 0, seats*DefaultVnodes)
	for s := 0; s < seats; s++ {
		for v := 0; v < DefaultVnodes; v++ {
			h := mix64(uint64(s)<<20 ^ uint64(v) ^ 0x5eed5eed5eed5eed)
			r.points = append(r.points, ringPoint{hash: h, seat: s})
		}
	}
	sort.Slice(r.points, func(i, j int) bool {
		if r.points[i].hash != r.points[j].hash {
			return r.points[i].hash < r.points[j].hash
		}
		return r.points[i].seat < r.points[j].seat
	})
	return r
}

// Locate returns the R distinct seats owning extent ext, primary first,
// appended to out. The walk starts at the first ring point clockwise of
// the extent's hash and skips points of already-collected seats.
func (r *Ring) Locate(ext int64, out []int) []int {
	h := mix64(uint64(ext) ^ 0x9e3779b97f4a7c15)
	n := len(r.points)
	start := sort.Search(n, func(i int) bool { return r.points[i].hash >= h })
	var collected uint64 // seat bitmap (NewRing caps seats at 64)
	for i := 0; i < n && len(out) < r.replicas; i++ {
		p := r.points[(start+i)%n]
		if collected&(1<<uint(p.seat)) != 0 {
			continue
		}
		collected |= 1 << uint(p.seat)
		out = append(out, p.seat)
	}
	return out
}
