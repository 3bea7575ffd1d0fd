package cluster

// MemberStats is one replica target's service state in a snapshot.
type MemberStats struct {
	Name string `json:"name"`
	// Seat is the placement slot the member occupies, -1 for spares and
	// displaced members.
	Seat  int  `json:"seat"`
	Alive bool `json:"alive"`
	// Spare marks members waiting to inherit a seat.
	Spare bool `json:"spare,omitempty"`
	// StaleExtents counts extents this seated member has not yet caught
	// up to the committed version (rebuild backlog).
	StaleExtents int `json:"stale_extents,omitempty"`
}

// Stats is the cluster's observability snapshot: configuration, member
// health, and the routing/recovery counters.
type Stats struct {
	Namespace   string `json:"namespace"`
	Seats       int    `json:"seats"`
	Replicas    int    `json:"replicas"`
	WriteQuorum int    `json:"write_quorum"`
	ExtentSize  int64  `json:"extent_size"`
	Extents     int    `json:"extents"`

	Writes        int64 `json:"writes"`
	Reads         int64 `json:"reads"`
	QuorumFails   int64 `json:"quorum_failures,omitempty"`
	ReadFailovers int64 `json:"read_failovers,omitempty"`
	DegradedIOs   int64 `json:"degraded_ios,omitempty"`
	ReplicaDowns  int64 `json:"replica_downs,omitempty"`
	ReplicaUps    int64 `json:"replica_ups,omitempty"`

	RebuildRounds  int64 `json:"rebuild_rounds,omitempty"`
	RebuildExtents int64 `json:"rebuild_extents,omitempty"`
	RebuildBytes   int64 `json:"rebuild_bytes,omitempty"`
	// StaleExtents is the live rebuild backlog across all replicas; 0
	// means every replica holds the committed version of every extent.
	StaleExtents int `json:"stale_extents"`

	Members []MemberStats `json:"members"`
}

// Stats captures the cluster's current state.
func (c *Cluster) Stats() Stats {
	s := Stats{
		Namespace:   c.opts.Namespace,
		Seats:       c.opts.Seats,
		Replicas:    c.opts.Replicas,
		WriteQuorum: c.opts.WriteQuorum,
		ExtentSize:  c.opts.ExtentSize,
		Extents:     len(c.extentList),

		Writes:        c.writes,
		Reads:         c.reads,
		QuorumFails:   c.quorumFails,
		ReadFailovers: c.readFailovers,
		DegradedIOs:   c.degradedIOs,
		ReplicaDowns:  c.replicaDowns,
		ReplicaUps:    c.replicaUps,

		RebuildRounds:  c.rebuildRounds,
		RebuildExtents: c.rebuildExtents,
		RebuildBytes:   c.rebuildBytes,
	}
	staleBySeat := make(map[int]int)
	c.visitStale(func(st *extentState, ri int) {
		staleBySeat[st.repl[ri].seat]++
		s.StaleExtents++
	})
	for _, ms := range c.members {
		m := MemberStats{Name: ms.name, Seat: ms.seat, Alive: ms.alive}
		if ms.seat < 0 {
			m.Spare = true
		} else if c.seats[ms.seat].member == ms.idx {
			m.StaleExtents = staleBySeat[ms.seat]
		}
		s.Members = append(s.Members, m)
	}
	return s
}
