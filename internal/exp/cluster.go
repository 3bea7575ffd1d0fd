package exp

import (
	"fmt"
	"time"

	"nvmeoaf/internal/cluster"
	"nvmeoaf/internal/dial"
	"nvmeoaf/internal/faults"
	"nvmeoaf/internal/model"
	"nvmeoaf/internal/perf"
	"nvmeoaf/internal/sim"
	"nvmeoaf/internal/telemetry"
	"nvmeoaf/internal/world"
)

// Cluster experiments model the paper's HPC-cloud deployment one level
// up: instead of one target VM per stream on a shared NIC, the namespace
// is sharded and replicated across ClusterTargets independent target
// machines (each with its own SSD, NIC, and fabric server), and a single
// client drives the placement/replication router. Read IOPS should scale
// with the member count — each extent's reads rotate across its
// replicas — while quorum writes pay the replication factor.

// nqnCluster names member i's storage service.
func nqnCluster(i int) string { return fmt.Sprintf("nqn.2022-06.io.oaf:cluster%d", i) }

// runCluster executes a replicated-namespace configuration: N member
// targets, one router, one perf stream.
func runCluster(cfg Config) (*Result, error) {
	n := cfg.ClusterTargets
	linkParams, err := cfg.Kind.Link()
	if err != nil {
		return nil, err
	}
	if cfg.Kind == OAF {
		linkParams = model.TCP100G() // members are remote: no loopback SHM
	}
	tel := telemetry.New()
	w := world.New(cfg.Seed, tel)
	defer w.Close()
	e := w.Engine
	res := &Result{Telemetry: tel}
	// Cluster runs drive one logical stream, so one tenant (the first)
	// covers all router traffic; the replica fan-out marks every copy
	// after the first QoS-exempt, debiting the budget once per write.
	reg, err := cfg.tenants()
	if err != nil {
		return nil, err
	}

	base := cfg.dialOptions(tel, reg)
	base.QueueDepth, base.Tenant = cfg.Workload.QueueDepth, cfg.TenantFor(0).Name
	cluster.FailFast(&base.CommandTimeout, &base.MaxRetries, &base.RetryBackoff)
	members := make([]world.Pair, n)
	svcs := make([]*world.Service, n)
	for i := range members {
		// Each member is its own machine with its own port, so fabric
		// bandwidth scales with the member count; both ends of its link
		// sit on that port (the client side is modeled per link: the
		// aggregate client is not the bottleneck under study here).
		m := w.Remote(fmt.Sprintf("member%d", i), linkParams)
		if svcs[i], err = w.Service(m, nqnCluster(i), cfg.ssd(fmt.Sprintf("cnvme%d", i))); err != nil {
			return nil, err
		}
		res.Devices = append(res.Devices, svcs[i].SSD)
		members[i] = w.Serve(m, svcs[i], base, cfg.Workload.MaxIOSize())
	}

	var inj *faults.Injector
	if cfg.CrashDown > 0 {
		if cfg.CrashMember < 0 || cfg.CrashMember >= n {
			return nil, fmt.Errorf("exp: crash member %d out of range", cfg.CrashMember)
		}
		inj = faults.NewInjector(e)
		inj.CrashTarget(svcs[cfg.CrashMember], cfg.CrashAt, cfg.CrashDown)
	}

	name := fmt.Sprintf("%s-cluster%d", cfg.Kind, n)

	var cl *cluster.Cluster
	var stream *perf.Stream
	setupErr := sim.NewFuture[error](e)
	e.Go("setup", func(p *sim.Proc) {
		cms := make([]cluster.Member, 0, n)
		for i, m := range members {
			q, err := dial.Connect(p, m.Link.A, m.Opts)
			if err != nil {
				setupErr.Resolve(err)
				return
			}
			cms = append(cms, cluster.Member{Name: nqnCluster(i), Queue: q})
		}
		// Keep-alive probing only matters when a member can die; pure
		// perf runs skip the probe traffic.
		var probe time.Duration
		if cfg.CrashDown > 0 {
			probe = cluster.ProbePeriod
		}
		var err error
		cl, err = cluster.New(e, cms, cluster.Options{
			Replicas:      cfg.ClusterReplicas,
			ProbeInterval: probe,
			RetainData:    cfg.RetainData,
			Namespace:     name,
			Telemetry:     tel,
		})
		if err != nil {
			setupErr.Resolve(err)
			return
		}
		stream = perf.NewStream(e, name, cl, cfg.Workload, nil)
		stream.Start()
		// The router's probe loops re-arm timers forever; close it once
		// the stream drains so the engine can run out of events.
		e.GoDaemon("cluster-close", func(p *sim.Proc) {
			stream.Wait(p)
			cl.Close()
		})
		setupErr.Resolve(nil)
	})

	if err := e.Run(); err != nil {
		return nil, err
	}
	if err, ok := setupErr.Value(); ok && err != nil {
		return nil, err
	}

	res.PerStream = append(res.PerStream, stream.Result())
	res.Agg = perf.Merge(res.PerStream...)
	st := cl.Stats()
	res.Cluster = &st
	if inj != nil {
		res.FaultLog = inj.Log
	}
	res.finish(w, reg)
	return res, nil
}
