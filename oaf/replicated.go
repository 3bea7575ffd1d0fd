package oaf

import (
	"fmt"

	"nvmeoaf/internal/cluster"
	"nvmeoaf/internal/transport"
)

// ReplicaOptions configures a replicated namespace: N member targets
// (named "<prefix>.0" .. "<prefix>.<N-1>"), R copies of each extent, and
// a write quorum W.
type ReplicaOptions struct {
	// Targets is the member-target count N (+ spares). 0 auto-discovers
	// consecutively numbered "<prefix>.<i>" targets.
	Targets int
	// Replicas is R, copies kept of every extent (default 2).
	Replicas int
	// WriteQuorum is W, replica acks a write completes at (default
	// majority of R).
	WriteQuorum int
	// Spares holds this many members out of the placement ring as warm
	// spares: a dead member's seat passes to a spare and re-replication
	// rebuilds its extents from survivors (default 0).
	Spares int
	// ExtentSize is the sharding granularity (default 128 KiB).
	ExtentSize int64
	// Connect tunes each member connection. CommandTimeout and
	// MaxRetries default to crash-tolerant values when zero, so a dead
	// member yields typed errors instead of hanging the namespace.
	Connect ConnectOptions
}

// ReplicatedQueue is the Queue-shaped facade of a replicated namespace:
// Read/Write/Flush route through the placement/replication layer, so
// application code written against Queue runs unchanged on a survivable,
// self-healing namespace.
type ReplicatedQueue struct {
	*Queue
	cl      *cluster.Cluster
	members []*Queue
}

// Members exposes the per-target member connections.
func (rq *ReplicatedQueue) Members() []*Queue { return rq.members }

// Stats captures the replication layer's state: member health, seat
// occupancy, quorum/failover counters, and the live rebuild backlog.
func (rq *ReplicatedQueue) Stats() cluster.Stats { return rq.cl.Stats() }

// MemberHealth reports each member connection's transport-level health,
// index-aligned with Members().
func (rq *ReplicatedQueue) MemberHealth() []Health {
	out := make([]Health, len(rq.members))
	for i, m := range rq.members {
		out[i] = transport.HealthOf(m.inner)
	}
	return out
}

// ConnectReplicated assembles a replicated namespace over the targets
// named "<prefix>.0" .. "<prefix>.<Targets-1>" (each registered with
// AddTarget, typically on distinct hosts): one connection per member,
// sharded by consistent hashing of extents, each extent replicated
// opts.Replicas ways, writes acknowledged at the write quorum, reads
// routed to up-to-date replicas with failover. Member death is detected
// by keep-alive probes and typed errors; spares inherit dead members'
// placement seats and background re-replication heals the namespace.
func (ctx *Ctx) ConnectReplicated(nqnPrefix string, opts ReplicaOptions) (*ReplicatedQueue, error) {
	c := ctx.cluster
	n := opts.Targets
	if n <= 0 {
		for {
			if _, ok := c.targets[memberNQN(nqnPrefix, n)]; !ok {
				break
			}
			n++
		}
	}
	if n == 0 {
		return nil, fmt.Errorf("oaf: no targets named %q found", memberNQN(nqnPrefix, 0))
	}
	seats, err := cluster.Seats(n, opts.Spares)
	if err != nil {
		return nil, err
	}

	single := opts.Connect
	single.Queues = 1
	cluster.FailFast(&single.CommandTimeout, &single.MaxRetries, &single.RetryBackoff)
	members := make([]cluster.Member, 0, n)
	queues := make([]*Queue, 0, n)
	retain := false
	for i := 0; i < n; i++ {
		nqn := memberNQN(nqnPrefix, i)
		te, ok := c.targets[nqn]
		if !ok {
			return nil, fmt.Errorf("oaf: replicated namespace %q needs target %q", nqnPrefix, nqn)
		}
		retain = retain || te.cfg.RetainData
		q, err := ctx.connectOne(nqn, single)
		if err != nil {
			for _, m := range queues {
				m.Close()
			}
			return nil, fmt.Errorf("oaf: replica member %d: %w", i, err)
		}
		queues = append(queues, q)
		members = append(members, cluster.Member{Name: nqn, Queue: q.inner})
	}

	cl, err := cluster.New(c.w.Engine, members, cluster.Options{
		Seats:         seats,
		Replicas:      opts.Replicas,
		WriteQuorum:   opts.WriteQuorum,
		ExtentSize:    opts.ExtentSize,
		ProbeInterval: cluster.ProbePeriod,
		RetainData:    retain,
		Namespace:     nqnPrefix,
		Telemetry:     c.w.Tel,
	})
	if err != nil {
		for _, m := range queues {
			m.Close()
		}
		return nil, err
	}
	c.replicated = append(c.replicated, cl)

	// cluster.Cluster implements transport.Queue, so it slots straight in
	// as the facade's inner queue (Close tears down the cluster and every
	// member connection).
	facade := &Queue{
		inner: cl, ctx: ctx, tracer: queues[0].tracer,
		target: nqnPrefix,
	}
	return &ReplicatedQueue{Queue: facade, cl: cl, members: queues}, nil
}

func memberNQN(prefix string, i int) string { return fmt.Sprintf("%s.%d", prefix, i) }
