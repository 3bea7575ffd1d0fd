package oaf

import (
	"encoding/json"

	"nvmeoaf/internal/cache"
	"nvmeoaf/internal/cluster"
	"nvmeoaf/internal/core"
	"nvmeoaf/internal/faults"
	"nvmeoaf/internal/mempool"
	"nvmeoaf/internal/qos"
	"nvmeoaf/internal/session"
	"nvmeoaf/internal/telemetry"
)

// QueueSnapshot is the per-connection view of the observability layer:
// which data path the queue runs on and its recovery counters.
type QueueSnapshot struct {
	Target string `json:"target"`
	// Tenant is the tenant this queue submits for ("" = untenanted).
	Tenant string `json:"tenant,omitempty"`
	// Path is "shm" when the adaptive fabric negotiated shared memory,
	// "tcp" otherwise.
	Path            string `json:"path"`
	Completed       int64  `json:"completed"`
	Retries         int64  `json:"retries,omitempty"`
	Timeouts        int64  `json:"timeouts,omitempty"`
	Failovers       int64  `json:"failovers,omitempty"`
	Reconnects      int64  `json:"reconnects,omitempty"`
	LateMsgs        int64  `json:"late_msgs,omitempty"`
	SHMPayloadBytes int64  `json:"shm_payload_bytes,omitempty"`
}

// Snapshot captures this queue's counters at the current virtual time.
func (q *Queue) Snapshot() QueueSnapshot {
	s := QueueSnapshot{Target: q.target, Tenant: q.tenant, Path: "tcp"}
	if q.SharedMemory {
		s.Path = "shm"
	}
	if cl, ok := q.inner.(interface{ Stats() session.HostStats }); ok {
		st := cl.Stats()
		s.Completed = st.Completed
		s.Retries = st.Retries
		s.Timeouts = st.Timeouts
		s.Reconnects = st.Reconnects
		s.LateMsgs = st.LateMsgs
	}
	if cl, ok := q.inner.(*core.Client); ok {
		// Report the live data path: a mid-stream failover (e.g. revoked
		// region) moves the queue to TCP after connect time.
		if !cl.SHMEnabled() {
			s.Path = "tcp"
		}
		s.Failovers = cl.Failovers
		s.SHMPayloadBytes = cl.SHMPayloadBytes
	}
	return s
}

// GroupSnapshot is the merged view of a QueueGroup: per-member snapshots
// plus their sum, with the path reflecting the group's mix ("shm", "tcp",
// or "mixed" when a member degraded independently).
type GroupSnapshot struct {
	Target  string          `json:"target"`
	Queues  int             `json:"queues"`
	Merged  QueueSnapshot   `json:"merged"`
	Members []QueueSnapshot `json:"members"`
}

// Snapshot merges the member queues' counters at the current virtual time.
func (g *QueueGroup) Snapshot() GroupSnapshot {
	snap := GroupSnapshot{Target: g.target, Queues: len(g.members)}
	shm, tcp := 0, 0
	for _, m := range g.members {
		ms := m.Snapshot()
		snap.Members = append(snap.Members, ms)
		snap.Merged.Completed += ms.Completed
		snap.Merged.Retries += ms.Retries
		snap.Merged.Timeouts += ms.Timeouts
		snap.Merged.Failovers += ms.Failovers
		snap.Merged.Reconnects += ms.Reconnects
		snap.Merged.LateMsgs += ms.LateMsgs
		snap.Merged.SHMPayloadBytes += ms.SHMPayloadBytes
		if ms.Path == "shm" {
			shm++
		} else {
			tcp++
		}
	}
	snap.Merged.Target = g.target
	switch {
	case tcp == 0:
		snap.Merged.Path = "shm"
	case shm == 0:
		snap.Merged.Path = "tcp"
	default:
		snap.Merged.Path = "mixed"
	}
	return snap
}

// ClusterSnapshot aggregates the fabric-wide observability layer: the
// shared telemetry sink (counters, latency histograms, path-decision
// trace), every connected queue, and the target data-pool accounting.
type ClusterSnapshot struct {
	TimeNs    int64              `json:"time_ns"`
	Telemetry telemetry.Snapshot `json:"telemetry"`
	Queues    []QueueSnapshot    `json:"queues,omitempty"`
	Pools     []mempool.Stats    `json:"pools,omitempty"`
	// Caches reports every target-side block cache (hit/miss/dirty
	// accounting and the live admission hit-rate EWMA).
	Caches []cache.Stats `json:"caches,omitempty"`
	// Replicated reports every replicated namespace: member health, seat
	// occupancy, quorum counters, and the rebuild backlog.
	Replicated []cluster.Stats `json:"replicated,omitempty"`
	// Faults is the injector's applied-event log (empty when no faults
	// were scheduled), so post-mortems can correlate telemetry dips with
	// the faults that caused them.
	Faults []faults.Event `json:"faults,omitempty"`
	// Tenants is the per-tenant telemetry (submits, completions, bytes,
	// throttles, borrow/lend, latency and token-wait distributions),
	// keyed by tenant name. It aliases Telemetry.Tenants for direct
	// access and is elided from the JSON to avoid double-marshaling.
	Tenants map[string]telemetry.TenantSnapshot `json:"-"`
	// QoS merges the token-ledger accounting (taken/borrowed/lent/
	// throttles) across every enforcement point, by tenant.
	QoS []qos.TenantStats `json:"qos,omitempty"`
}

// Telemetry exposes the cluster's shared sink, shared by every
// connection and target created on this cluster.

// Snapshot captures the whole cluster's observability state.
func (c *Cluster) Snapshot() ClusterSnapshot {
	snap := ClusterSnapshot{
		TimeNs: int64(c.w.Engine.Now()),
		// Stamped with virtual time so two snapshots feed
		// telemetry.Snapshot.DeltaSince directly (interval rates).
		Telemetry: c.w.Tel.SnapshotAt(int64(c.w.Engine.Now())),
	}
	snap.Tenants = snap.Telemetry.Tenants
	snap.QoS = c.QoSStats()
	for _, q := range c.queues {
		snap.Queues = append(snap.Queues, q.Snapshot())
	}
	for _, p := range c.w.Pools {
		snap.Pools = append(snap.Pools, p.Stats())
	}
	for _, ca := range c.w.Caches {
		snap.Caches = append(snap.Caches, ca.Stats())
	}
	for _, cl := range c.replicated {
		snap.Replicated = append(snap.Replicated, cl.Stats())
	}
	if c.inj != nil {
		snap.Faults = append(snap.Faults, c.inj.Log...)
	}
	return snap
}

// MarshalJSON renders the snapshot (ClusterSnapshot is plain data; this
// keeps the two snapshot types symmetric for exporters).
func (s ClusterSnapshot) MarshalJSON() ([]byte, error) {
	type alias ClusterSnapshot
	return json.Marshal(alias(s))
}
