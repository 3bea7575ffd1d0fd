// Package exp runs the microbenchmark configurations behind every figure
// and collects their results. Each run describes its topology to
// internal/world — a physical host with client VMs and a target VM
// (SR-IOV hairpin through a shared NIC), emulated NVMe-SSDs behind
// per-service subsystems — over one of the evaluated fabrics: NVMe/TCP at
// three link speeds, NVMe/RDMA, NVMe/RoCE, or NVMe-oAF with any of its
// shared-memory designs.
package exp

import (
	"fmt"
	"time"

	"nvmeoaf/internal/bdev"
	"nvmeoaf/internal/cache"
	"nvmeoaf/internal/cluster"
	"nvmeoaf/internal/core"
	"nvmeoaf/internal/dial"
	"nvmeoaf/internal/faults"
	"nvmeoaf/internal/mempool"
	"nvmeoaf/internal/model"
	"nvmeoaf/internal/perf"
	"nvmeoaf/internal/qos"
	"nvmeoaf/internal/session"
	"nvmeoaf/internal/sim"
	"nvmeoaf/internal/telemetry"
	"nvmeoaf/internal/transport"
	"nvmeoaf/internal/tune"
	"nvmeoaf/internal/world"
)

// Kind names a fabric under test.
type Kind = dial.Kind

// The evaluated fabrics.
const (
	TCP10G     = dial.TCP10G
	TCP25G     = dial.TCP25G
	TCP100G    = dial.TCP100G
	RDMA56     = dial.RDMA56
	RoCE100    = dial.RoCE100
	OAF        = dial.OAF
	OAFRDMACtl = dial.OAFRDMACtl
)

// Config describes one experiment run.
type Config struct {
	// Kind selects the fabric.
	Kind Kind
	// Design selects the shared-memory design for OAF runs (defaults to
	// DesignSHMZeroCopy, the paper's headline configuration).
	Design core.Design
	// Streams is the number of client/SSD pairs (1:1 mapping, §3.1).
	Streams int
	// Queues opens this many queue pairs per stream and stripes its I/O
	// across them by offset (default 1). Each member queue gets its own
	// link, server connection, and — for OAF runs — shared-memory region.
	Queues int
	// Workload is the per-stream pattern; its Span defaults to
	// SSDCapacity.
	Workload perf.Workload
	// TP carries the TCP-channel knobs (chunk size, in-capsule
	// threshold, busy-poll budget) for TCP and OAF runs.
	TP model.TCPTransportParams
	// Seed drives all randomness.
	Seed int64
	// RetainData materializes payload bytes end to end.
	RetainData bool
	// SSD overrides the device model (zero value = model.DefaultSSD()).
	SSD model.SSDParams
	// SSDCapacity per device (default 2 GiB).
	SSDCapacity int64
	// RDMA overrides the RDMA fabric parameters (nil = model defaults),
	// for ablations such as disabling registration-cache misses.
	RDMA *model.RDMAParams
	// CacheBytes, when positive, fronts every SSD with a target-side
	// DRAM block cache of this capacity.
	CacheBytes int64
	// CacheMode selects the cache write policy (write-through default).
	CacheMode cache.Mode

	// ClusterTargets, when positive, replaces the per-stream direct
	// connections with a sharded + replicated namespace over this many
	// member targets — one target machine, SSD, NIC, and fabric
	// connection per member — and drives the workload through the
	// placement/replication router (Streams is forced to 1: the
	// namespace is one logical volume).
	ClusterTargets int
	// ClusterReplicas is the replication factor (default 2); writes wait
	// for a majority of replicas, extents are 128 KiB and every member
	// holds data (no spares).
	ClusterReplicas int
	// CrashDown > 0 schedules member CrashMember's target to crash at
	// CrashAt and restart CrashDown later, mid-workload.
	CrashMember        int
	CrashAt, CrashDown time.Duration

	// RDMARegCache / RDMAMerge / RDMADynDoorbell enable the RDMA fast
	// path on RDMA/RoCE runs: the mechanistic MR cache with connect-time
	// pool pre-registration, adjacent-request merging, and the
	// occupancy-driven doorbell controller (see dial.Options).
	RDMARegCache    bool
	RDMAMerge       bool
	RDMADynDoorbell bool

	// Tenants assigns the run's streams to named tenants round-robin
	// (stream i submits as Tenants[i mod len]) and arms host-side
	// per-tenant token admission: one shared enforcement point models
	// every client VM sitting on the one physical host. Empty keeps the
	// QoS layer wire- and timing-inert.
	Tenants []TenantSpec
	// TargetQoS additionally arms target-side admission with the same
	// tenant rates: an over-budget tenant's commands get typed retryable
	// rejections (StatusTenantThrottled) at the target instead of
	// queueing. Pair with a command timeout when rejections must be
	// re-driven rather than surfaced.
	TargetQoS bool

	// Tune attaches the online self-tuning controller (internal/tune)
	// to the run: every client queue's live knobs (batch, busy-poll,
	// QD target, chunk size) and every target cache's admission knobs
	// are hill-climbed against the completion rate while the workload
	// runs — no reconnects, no restarts. The trajectory lands in
	// Result.Tuner. Not supported on cluster runs.
	Tune bool
	// TunePeriod overrides the controller's sampling interval
	// (default 20 ms of virtual time).
	TunePeriod time.Duration
}

func (c Config) withDefaults() Config {
	if c.Streams <= 0 {
		c.Streams = 1
	}
	if c.Queues <= 0 {
		c.Queues = 1
	}
	c.TP = c.TP.OrDefault()
	if c.SSD.Channels == 0 {
		c.SSD = model.DefaultSSD()
	}
	if c.SSDCapacity <= 0 {
		c.SSDCapacity = 2 << 30
	}
	if c.Workload.Span <= 0 {
		c.Workload.Span = c.SSDCapacity
	}
	c.Kind, c.Design = dial.Defaults(c.Kind, c.Design)
	return c
}

// Result is the outcome of one experiment run.
type Result struct {
	Agg       perf.Aggregate
	PerStream []*perf.Result
	// Devices exposes the SSD models for utilization queries.
	Devices []*bdev.SSDBdev
	// PoolFootprint is the target data-pool memory (chunk-size study).
	PoolFootprint int
	// WireBytes is the total payload+control bytes that crossed the
	// network (shared-memory payloads excluded by construction).
	WireBytes int64
	// SHMBytes is the payload volume moved through shared memory.
	SHMBytes int64
	// Telemetry is the run's observability sink (counters, traces,
	// latency histograms across every connection).
	Telemetry *telemetry.Sink
	// Pools reports the target data-pool accounting per stream.
	Pools []mempool.Stats
	// Caches exposes the per-SSD block caches (nil when uncached), and
	// CacheStats their final accounting.
	Caches     []*cache.Cache
	CacheStats []cache.Stats
	// Cluster is the replication layer's final snapshot for cluster runs
	// (nil otherwise); FaultLog records the injected crash schedule as
	// it executed.
	Cluster  *cluster.Stats
	FaultLog []faults.Event
	// Tuner is the self-tuning controller's trajectory and final knob
	// settings (nil unless Config.Tune).
	Tuner *tune.Report
	// QoSRegistry is the run's tenant registry with its enforcement
	// points (nil when untenanted), exposed for token-ledger checks.
	QoSRegistry *qos.Registry
	// QoS merges the per-tenant token accounting across those points.
	QoS []qos.TenantStats
}

// TenantSpec names one tenant sharing a run, with its QoS contract.
type TenantSpec struct {
	// Name identifies the tenant across enforcement points.
	Name string
	// SLO steers the tenant's connections' receive path: latency-
	// sensitive tenants busy-poll with shallow trains, throughput/batch
	// tenants run interrupt-mode with deep coalescing. Knobs the run's
	// TP pins explicitly win.
	SLO qos.SLO
	// RateMBps is the token refill rate in MiB/s at each enforcement
	// point (0 = unlimited: attributed, lends its burst, never throttled).
	RateMBps int
	// BurstBytes bounds the bucket (0 = package default).
	BurstBytes int64
	// Streams, when positive, assigns this many of the run's streams to
	// this tenant (specs consume streams in declaration order; the last
	// spec absorbs any remainder). When every spec leaves it zero,
	// streams round-robin across tenants.
	Streams int
	// QueueDepth, when positive, overrides the run workload's queue
	// depth for this tenant's streams — how load asymmetry between
	// tenants is expressed without separate runs.
	QueueDepth int
	// Pattern, when set, overrides the run workload's pattern fields
	// (Seq, Zipf, ReadPct, SizeMix, and IOSize when positive) for this
	// tenant's streams, so tenants with different request shapes can
	// share one run. Note shared-memory slot sizing still follows the
	// run workload: keep the largest I/O size on Config.Workload.
	Pattern *perf.Phase
}

// TenantFor resolves stream i's tenant (zero spec when untenanted).
func (c Config) TenantFor(i int) TenantSpec {
	if len(c.Tenants) == 0 {
		return TenantSpec{}
	}
	blocks := false
	for _, ts := range c.Tenants {
		if ts.Streams > 0 {
			blocks = true
			break
		}
	}
	if !blocks {
		return c.Tenants[i%len(c.Tenants)]
	}
	for _, ts := range c.Tenants {
		n := ts.Streams
		if n <= 0 {
			n = 1
		}
		if i < n {
			return ts
		}
		i -= n
	}
	return c.Tenants[len(c.Tenants)-1]
}

// tenants registers Config.Tenants (nil when untenanted).
func (c Config) tenants() (*qos.Registry, error) {
	if len(c.Tenants) == 0 {
		if c.TargetQoS {
			return nil, fmt.Errorf("exp: TargetQoS requires Tenants")
		}
		return nil, nil
	}
	reg := qos.NewRegistry()
	for _, ts := range c.Tenants {
		if err := reg.Add(qos.Spec{
			Name: ts.Name, SLO: ts.SLO,
			RateBps: int64(ts.RateMBps) << 20, BurstBytes: ts.BurstBytes,
		}); err != nil {
			return nil, err
		}
	}
	return reg, nil
}

// finish folds the world's links, data pools and caches and the QoS
// enforcement points into the result.
func (res *Result) finish(w *world.World, reg *qos.Registry) {
	for _, l := range w.Links {
		res.WireBytes += l.A.BytesSent + l.B.BytesSent
	}
	for _, pool := range w.Pools {
		res.PoolFootprint += pool.FootprintBytes()
		res.Pools = append(res.Pools, pool.Stats())
	}
	for _, ca := range w.Caches {
		res.CacheStats = append(res.CacheStats, ca.Stats())
	}
	res.QoSRegistry, res.QoS = reg, reg.Stats()
}

// dialOptions is what every connection of the run shares; the builder
// adds the per-connection NQN, queue depth, tenant, TP and region. Every
// client VM sits on the one physical host, so one host-side enforcement
// point covers them all; TargetQoS adds one for the target side.
func (c Config) dialOptions(tel *telemetry.Sink, reg *qos.Registry) dial.Options {
	o := dial.Options{
		Kind:        c.Kind,
		ConnOptions: session.ConnOptions{Telemetry: tel, QoS: reg.Shaper("host", tel)},
		TP:          c.TP,
		Design:      c.Design,
		RDMA:        c.RDMA,
		RegCache:    c.RDMARegCache, Merge: c.RDMAMerge, DynDoorbell: c.RDMADynDoorbell,
	}
	if c.TargetQoS {
		o.TargetQoS = reg.Shaper("target", tel)
	}
	return o
}

// nqnFor names the per-SSD storage service.
func nqnFor(i int) string { return fmt.Sprintf("nqn.2022-06.io.oaf:ssd%d", i) }

// ssd describes a service's device from the run's device knobs.
func (c Config) ssd(name string) world.Spec {
	return world.Spec{SSDName: name, Capacity: c.SSDCapacity, SSD: c.SSD, Retain: c.RetainData}
}

// Run executes the configuration and returns aggregated results.
func Run(cfg Config) (*Result, error) {
	cfg = cfg.withDefaults()
	if cfg.ClusterTargets > 0 {
		if cfg.Tune {
			return nil, fmt.Errorf("exp: Tune is not supported on cluster runs")
		}
		return runCluster(cfg)
	}
	tel := telemetry.New()
	res := &Result{Telemetry: tel}
	reg, err := cfg.tenants()
	if err != nil {
		return nil, err
	}
	linkParams, err := cfg.Kind.Link()
	if err != nil {
		return nil, err
	}
	w := world.New(cfg.Seed, tel)
	defer w.Close()
	e := w.Engine
	// One machine: all client and target VMs sit on the same host and
	// their SR-IOV traffic hairpins through its one port (§3.1, §5.1).
	host := w.Hairpin("host0", linkParams)
	svcs := make([]*world.Service, cfg.Streams)
	for i := range svcs {
		spec := cfg.ssd(fmt.Sprintf("nvme%d", i))
		spec.Cache = cache.Config{Bytes: cfg.CacheBytes, Mode: cfg.CacheMode}
		if svcs[i], err = w.Service(host, nqnFor(i), spec); err != nil {
			return nil, err
		}
		res.Devices = append(res.Devices, svcs[i].SSD)
	}
	res.Caches = w.Caches

	// One pair (link, server, region) per queue: pair i*Queues+j is
	// stream i's member queue j. Regions are sized for the run workload's
	// depth; a tenant's depth override applies at connect. MaxIOSize
	// covers SizeMix entries and the flip phase, so shared-memory slots
	// fit every request either phase can draw.
	base := cfg.dialOptions(tel, reg)
	base.QueueDepth = cfg.Workload.QueueDepth
	pairs := make([]world.Pair, cfg.Streams*cfg.Queues)
	for li := range pairs {
		// The tenant's SLO steers busy-poll and batching where the run
		// config left them unset.
		o := base
		o.TP.BusyPoll, o.TP.BatchSize = cfg.TenantFor(li/cfg.Queues).SLO.Steer(o.TP.BusyPoll, o.TP.BatchSize)
		pairs[li] = w.Serve(host, svcs[li/cfg.Queues], o, cfg.Workload.MaxIOSize())
	}

	// Connect clients and run one perf stream per pair.
	streams := make([]*perf.Stream, cfg.Streams)
	var oafClients []*core.Client
	var ctl *tune.Controller
	// The cache knobs exist before any connection; queue knobs join as
	// clients connect inside the setup process.
	var knobs []tune.Knob
	if cfg.Tune {
		for i, ca := range res.Caches {
			knobs = append(knobs, tune.CacheKnobs(fmt.Sprintf("cache%d", i), ca)...)
		}
	}
	setupErr := sim.NewFuture[error](e)
	e.Go("setup", func(p *sim.Proc) {
		for i := 0; i < cfg.Streams; i++ {
			wl := cfg.Workload
			ts := cfg.TenantFor(i)
			if ts.QueueDepth > 0 {
				wl.QueueDepth = ts.QueueDepth
			}
			if pat := ts.Pattern; pat != nil {
				wl.Seq, wl.Zipf, wl.ReadPct, wl.SizeMix = pat.Seq, pat.Zipf, pat.ReadPct, pat.SizeMix
				if pat.IOSize > 0 {
					wl.IOSize = pat.IOSize
				}
			}
			members := make([]transport.Queue, 0, cfg.Queues)
			for j := 0; j < cfg.Queues; j++ {
				pr := pairs[i*cfg.Queues+j]
				o := pr.Opts
				o.QueueDepth, o.Tenant = wl.QueueDepth, ts.Name
				q, err := dial.Connect(p, pr.Link.A, o)
				if err != nil {
					setupErr.Resolve(err)
					return
				}
				if c, ok := q.(*core.Client); ok {
					oafClients = append(oafClients, c)
				}
				members = append(members, q)
				// Every client kind exposes the live-knob surface through
				// its embedded session engine; TCP-path clients add the
				// chunk knob via ChunkTunable.
				if tq, ok := q.(tune.TunableQueue); ok && cfg.Tune {
					knobs = append(knobs, tune.QueueKnobs(fmt.Sprintf("s%d/q%d", i, j), tq, pr.Server)...)
				}
			}
			var q transport.Queue = members[0]
			if len(members) > 1 {
				q = transport.NewStriped(0, members...)
			}
			// Ring-mode streams report the ring.* metric group through the
			// run's sink like every other subsystem.
			streams[i] = perf.NewStream(e, fmt.Sprintf("%s-s%d", cfg.Kind, i), q, wl, tel)
		}
		for _, s := range streams {
			s.Start()
		}
		if cfg.Tune {
			ctl = tune.NewController(e, tune.Config{
				Period:    cfg.TunePeriod,
				Telemetry: tel,
			}, knobs)
			ctl.Start()
			// The tuner re-arms a timer every period; stop it when the
			// workload drains so the engine run can complete.
			e.Go("tuner-stop", func(p *sim.Proc) {
				for _, s := range streams {
					s.Wait(p)
				}
				ctl.Stop()
			})
		}
		setupErr.Resolve(nil)
	})

	if err := e.Run(); err != nil {
		return nil, err
	}
	if err, ok := setupErr.Value(); ok && err != nil {
		return nil, err
	}

	for _, s := range streams {
		res.PerStream = append(res.PerStream, s.Result())
	}
	res.Agg = perf.Merge(res.PerStream...)
	for _, c := range oafClients {
		res.SHMBytes += c.SHMPayloadBytes
	}
	if ctl != nil {
		rep := ctl.Report()
		res.Tuner = &rep
	}
	res.finish(w, reg)
	return res, nil
}
