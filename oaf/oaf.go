// Package oaf is the public API of the NVMe-oAF library: a simulated HPC
// cloud in which applications talk to NVMe-oF storage services over the
// adaptive fabric (shared memory + optimized TCP), plain NVMe/TCP, or
// NVMe/RDMA, reproducing the system of "NVMe-oAF: Towards Adaptive
// NVMe-oF for IO-Intensive Workloads on HPC Cloud" (HPDC '22).
//
// A Cluster holds simulated hosts; each host can run storage targets
// (subsystems backed by emulated NVMe-SSDs) and client applications.
// Application code runs inside Cluster.Run as a simulation process and
// connects to targets through Connect, which performs the adaptive
// fabric's locality check: co-located client/target pairs get a
// shared-memory data channel, remote pairs the optimized TCP path.
//
//	c := oaf.NewCluster(oaf.Config{Seed: 1})
//	c.AddHost("hostA")
//	c.AddTarget("hostA", "nqn.demo", oaf.TargetConfig{SSDCapacity: 1 << 30})
//	err := c.Run(func(ctx *oaf.Ctx) error {
//	    q, err := ctx.Connect("nqn.demo", oaf.ConnectOptions{})
//	    if err != nil { return err }
//	    defer q.Close()
//	    _, err = q.Write(0, make([]byte, 8192))
//	    return err
//	})
package oaf

import (
	"fmt"
	"time"

	"nvmeoaf/internal/cache"
	"nvmeoaf/internal/cluster"
	"nvmeoaf/internal/core"
	"nvmeoaf/internal/dial"
	"nvmeoaf/internal/faults"
	"nvmeoaf/internal/model"
	"nvmeoaf/internal/netsim"
	"nvmeoaf/internal/qos"
	"nvmeoaf/internal/session"
	"nvmeoaf/internal/sim"
	"nvmeoaf/internal/telemetry"
	"nvmeoaf/internal/transport"
	"nvmeoaf/internal/world"
)

// Design selects the shared-memory data-path design (the Fig 8 ablation),
// re-exported from the adaptive binding. The zero value on an adaptive
// fabric is DesignZeroCopy.
type Design = core.Design

// Shared-memory designs, in ablation order. DesignZeroCopy is the paper's
// headline configuration and the default.
const (
	DesignZeroCopy = core.DesignSHMZeroCopy
	DesignFlowCtl  = core.DesignSHMFlowCtl
	DesignLockFree = core.DesignSHMLockFree
	DesignBaseline = core.DesignSHMBaseline
)

// Fabric names the transport family of a connection, re-exported from
// the fabric table; the zero value is FabricAdaptive.
type Fabric = dial.Kind

// Supported fabrics. FabricAdaptive is NVMe-oAF: shared memory when
// co-located, optimized TCP otherwise; FabricAdaptiveRDMACtl runs its
// control plane over an intra-node RDMA path (the paper's future work).
const (
	FabricAdaptive        = dial.OAF
	FabricAdaptiveRDMACtl = dial.OAFRDMACtl
	FabricTCP10G          = dial.TCP10G
	FabricTCP25G          = dial.TCP25G
	FabricTCP100G         = dial.TCP100G
	FabricRDMA56G         = dial.RDMA56
	FabricRoCE100G        = dial.RoCE100
)

// Config configures a cluster.
type Config struct {
	// Seed drives all randomness (same seed = identical run).
	Seed int64
}

// CacheMode selects the write policy of a target-side block cache,
// re-exported from the cache.
type CacheMode = cache.Mode

const (
	// CacheWriteThrough completes writes only after the backing SSD does.
	CacheWriteThrough = cache.WriteThrough
	// CacheWriteBack absorbs aligned writes in DRAM and flushes them in
	// the background; OpFlush remains the durability barrier.
	CacheWriteBack = cache.WriteBack
)

// TargetConfig configures one storage service.
type TargetConfig struct {
	// SSDCapacity is the namespace size in bytes (default 1 GiB).
	SSDCapacity int64
	// RetainData stores payload bytes so reads return real data
	// (costs host memory proportional to written data).
	RetainData bool
	// CacheBytes, when positive, fronts the SSD with a target-side DRAM
	// block cache of this capacity (hits skip the device entirely).
	CacheBytes int64
	// CacheMode selects the cache write policy.
	CacheMode CacheMode
	// QoSEnforce arms target-side per-tenant admission for this service:
	// a tenant over budget at the target gets a typed retryable rejection
	// (StatusTenantThrottled) instead of queueing. Host-side shaping is
	// always on once tenants are registered; target enforcement is the
	// second, decentralized line of defense for hosts that under-shape.
	// Connections that re-drive rejections need a CommandTimeout.
	QoSEnforce bool
	// TenantDirtyFrac caps each named tenant's share of the write-back
	// cache's dirty budget (fraction of cache capacity); a tenant over
	// its share degrades to write-through instead of starving others.
	TenantDirtyFrac map[string]float64
}

// WithCache returns a copy of the config with a block cache of the given
// capacity and write policy.
func (tc TargetConfig) WithCache(bytes int64, mode CacheMode) TargetConfig {
	tc.CacheBytes = bytes
	tc.CacheMode = mode
	return tc
}

// ConnectOptions tunes one connection.
type ConnectOptions struct {
	// Fabric selects the transport (default FabricAdaptive).
	Fabric Fabric
	// Design selects the shared-memory design for adaptive connections.
	Design Design
	// QueueDepth bounds outstanding commands (default 128).
	QueueDepth int
	// ChunkSize overrides the TCP application-level chunk size.
	ChunkSize int
	// BusyPoll sets the socket busy-poll budget (0 = interrupt mode).
	BusyPoll time.Duration
	// MaxIOSize bounds the largest I/O, used to size shared-memory slots
	// (default 1 MiB).
	MaxIOSize int
	// EncryptSHM enciphers the shared-memory channel with a per-tenant
	// key (the hardening §6 of the paper proposes). Costs cipher
	// throughput on every payload and forfeits part of the zero-copy
	// benefit.
	EncryptSHM bool
	// Queues opens this many I/O queue pairs and stripes commands across
	// them by offset, as SPDK pins qpairs to cores (default 1). Values
	// above 1 make Connect return the facade of a QueueGroup; use
	// ConnectGroup for member-level access.
	Queues int
	// StripeUnit is the striping granularity for multi-queue connections:
	// stripe unit u of the address space belongs to member queue u mod
	// Queues, and larger I/Os split at unit boundaries (default 128 KiB).
	StripeUnit int
	// Batch enables submission/completion coalescing: the client packs up
	// to this many queued commands into one capsule train (one message,
	// one doorbell) and the target merges as many ready completions per
	// response message. 0 or 1 keeps the classic one-message-per-command
	// wire behavior.
	Batch int
	// CommandTimeout, when positive, bounds each command attempt: an
	// expired command fails over or retries with backoff and eventually
	// surfaces a typed transient error instead of hanging. Required for
	// crash-tolerant setups (replicated namespaces default it).
	CommandTimeout time.Duration
	// MaxRetries bounds retry attempts per timed-out command (default 3
	// when CommandTimeout is set).
	MaxRetries int
	// RetryBackoff is the base of the exponential retry backoff.
	RetryBackoff time.Duration
	// Tenant attributes every I/O on this connection to a registered
	// tenant (AddTenant): host-side token admission, per-tenant
	// telemetry, and — unless BusyPoll/Batch are set explicitly — the
	// tenant's SLO steers the receive-path knobs. Identity crosses the
	// wire once, inside the Fabrics Connect hostNQN; an empty Tenant
	// leaves the wire byte-identical to an untenanted build.
	Tenant string
}

// tgtEntry is one registered storage service.
type tgtEntry struct {
	svc *world.Service
	cfg TargetConfig
}

// Cluster is a simulated HPC-cloud deployment.
type Cluster struct {
	w     *world.World
	hosts map[string]*world.Machine
	// appHost is the first host added: where Run's application runs.
	appHost    string
	targets    map[string]*tgtEntry
	queues     []*Queue
	inj        *faults.Injector
	replicated []*cluster.Cluster
	tuners     []*Tuner
	// qosReg holds the registered tenants and their enforcement points:
	// one decentralized token ledger per host ("host:<name>") and per
	// enforcing target ("target:<nqn>").
	qosReg *qos.Registry
}

// NewCluster creates an empty cluster.
func NewCluster(cfg Config) *Cluster {
	return &Cluster{
		w:       world.New(cfg.Seed, telemetry.New()),
		hosts:   make(map[string]*world.Machine),
		targets: make(map[string]*tgtEntry),
	}
}

// AddHost registers a physical host: a 25 GbE port plus a loopback
// vswitch between its VMs. The first host added runs Run's application.
func (c *Cluster) AddHost(name string) error {
	if _, dup := c.hosts[name]; dup {
		return fmt.Errorf("oaf: host %q already exists", name)
	}
	if len(c.hosts) == 0 {
		c.appHost = name
	}
	c.hosts[name] = c.w.Host(name)
	return nil
}

// AddTarget starts a storage service on a host: one subsystem with one
// SSD-backed namespace, reachable by the given NQN.
func (c *Cluster) AddTarget(hostName, nqn string, cfg TargetConfig) error {
	h, ok := c.hosts[hostName]
	if !ok {
		return fmt.Errorf("oaf: unknown host %q", hostName)
	}
	if _, dup := c.targets[nqn]; dup {
		return fmt.Errorf("oaf: target %q already exists", nqn)
	}
	if cfg.SSDCapacity <= 0 {
		cfg.SSDCapacity = 1 << 30
	}
	svc, err := c.w.Service(h, nqn, world.Spec{
		SSDName: "ssd-" + nqn, Capacity: cfg.SSDCapacity, Retain: cfg.RetainData,
		Cache: cache.Config{Bytes: cfg.CacheBytes, Mode: cfg.CacheMode, TenantDirtyFrac: cfg.TenantDirtyFrac},
	})
	if err != nil {
		return err
	}
	c.targets[nqn] = &tgtEntry{svc: svc, cfg: cfg}
	return nil
}

// Injector returns the cluster's deterministic fault injector, creating
// it on first use. Schedules placed on it derive from the cluster seed,
// so chaos runs replay bit-identically.
func (c *Cluster) Injector() *faults.Injector {
	if c.inj == nil {
		c.inj = faults.NewInjector(c.w.Engine)
	}
	return c.inj
}

// ScheduleTargetCrash crashes the named target (every server transport
// serving it) at virtual time at, restarting it downFor later.
// Connections opened after this call still crash: the server set is
// evaluated when the fault fires.
func (c *Cluster) ScheduleTargetCrash(nqn string, at, downFor time.Duration) error {
	te, ok := c.targets[nqn]
	if !ok {
		return fmt.Errorf("oaf: unknown target %q", nqn)
	}
	c.Injector().CrashTarget(te.svc, at, downFor)
	return nil
}

// CacheStats returns the block-cache accounting of the named target; ok
// is false when the target is unknown or uncached.
func (c *Cluster) CacheStats(nqn string) (cache.Stats, bool) {
	te, found := c.targets[nqn]
	if !found || te.svc.Cache == nil {
		return cache.Stats{}, false
	}
	return te.svc.Cache.Stats(), true
}

// Run executes fn as a simulation process (an application on the first
// host added) and drives the simulation until all activity completes. It
// returns fn's error, or a simulation error (panic, deadlock).
func (c *Cluster) Run(fn func(ctx *Ctx) error) error {
	return c.RunUntil(time.Duration(sim.MaxTime), fn)
}

// RunUntil is Run with a virtual-time limit.
func (c *Cluster) RunUntil(limit time.Duration, fn func(ctx *Ctx) error) error {
	var appErr error
	c.w.Engine.Go("oaf-app", func(p *sim.Proc) {
		appErr = fn(&Ctx{cluster: c, proc: p, hostName: c.appHost})
		c.stopTuners()
	})
	if err := c.w.Engine.RunUntil(sim.Time(limit)); err != nil {
		return err
	}
	return appErr
}

// Now returns the current virtual time of the cluster.
func (c *Cluster) Now() time.Duration { return time.Duration(c.w.Engine.Now()) }

// Close tears a finished cluster down: attached tuners stop, and the
// simulation's parked processes unwind (world.World.Close), so a dropped
// cluster no longer pins its world. Call it after the last Run; the
// cluster must not be used afterwards.
func (c *Cluster) Close() {
	c.stopTuners()
	c.w.Close()
}

// Ctx is the handle application code uses inside Run: it identifies the
// calling process and the host the application runs on. A Ctx, and every
// queue connected through it, is valid only inside the function it was
// handed to: once that function returns, its process is recycled, and a
// blocking call through the stale Ctx or queue panics.
type Ctx struct {
	cluster  *Cluster
	proc     *sim.Proc
	hostName string
}

// On returns a Ctx bound to a different host (the application "runs"
// there for locality purposes).
func (ctx *Ctx) On(hostName string) *Ctx {
	return &Ctx{cluster: ctx.cluster, proc: ctx.proc, hostName: hostName}
}

// Cluster exposes the cluster for mid-run observability (Snapshot,
// CacheStats, Telemetry) from inside the application process.
func (ctx *Ctx) Cluster() *Cluster { return ctx.cluster }

// Sleep advances virtual time for this process.
func (ctx *Ctx) Sleep(d time.Duration) { ctx.proc.Sleep(d) }

// Now returns the current virtual time.
func (ctx *Ctx) Now() time.Duration { return time.Duration(ctx.proc.Now()) }

// Go spawns a concurrent application process on the same host. The Ctx
// handed to fn, and the queues fn connects through it, must not be used
// after fn returns.
func (ctx *Ctx) Go(name string, fn func(ctx *Ctx) error) *Task {
	t := &Task{done: sim.NewSignal(ctx.cluster.w.Engine)}
	ctx.cluster.w.Engine.Go(name, func(p *sim.Proc) {
		t.err = fn(&Ctx{cluster: ctx.cluster, proc: p, hostName: ctx.hostName})
		t.done.Fire()
	})
	return t
}

// Task is a spawned application process.
type Task struct {
	done *sim.Signal
	err  error
}

// Wait blocks until the task finishes and returns its error.
func (t *Task) Wait(ctx *Ctx) error {
	t.done.Wait(ctx.proc)
	return t.err
}

// Result is the completion of one I/O.
type Result struct {
	// Data is the read payload (when the target retains data).
	Data []byte
	// Latency is the end-to-end request time.
	Latency time.Duration
	// DeviceTime, FabricTime, OtherTime decompose Latency as in the
	// paper's breakdown figures.
	DeviceTime, FabricTime, OtherTime time.Duration
}

// Queue is one connected I/O queue pair.
type Queue struct {
	inner  transport.Queue
	ctx    *Ctx
	tracer *netsim.Tracer
	target string
	tenant string
	// srvTarget is the session engine of the server transport serving this
	// queue; the tuner uses it to keep target-side reap coalescing in step
	// with the client-side batch knob.
	srvTarget *session.Target
	// SharedMemory reports whether the adaptive fabric negotiated the
	// shared-memory data path for this connection.
	SharedMemory bool
}

// Trace renders the protocol exchange recorded on this connection: every
// control message with its PDUs and timestamps (payloads moving over
// shared memory never appear — they are not on the wire).
func (q *Queue) Trace() string { return q.tracer.String() }

// QueueGroup is a set of independently connected queues to one target
// with I/O striped across them by offset: each member has its own
// reactor and (on the adaptive fabric) its own shared-memory region, so
// a fault on one member — e.g. a revoked region — degrades only that
// member while the group keeps serving. The embedded Queue is the
// striped facade: Read/Write route through the group.
type QueueGroup struct {
	*Queue
	members []*Queue
}

// Members exposes the member queues (each independently snapshotable).
func (g *QueueGroup) Members() []*Queue { return g.members }

// Health is a connection's liveness classification, re-exported from the
// transport layer: Healthy, Degraded (reconnecting, timing out, or
// failed over), or Dead (closed).
type Health = transport.Health

// Health states.
const (
	HealthHealthy  = transport.HealthHealthy
	HealthDegraded = transport.HealthDegraded
	HealthDead     = transport.HealthDead
)

// MemberHealth reports each member queue's current health, index-aligned
// with Members(). A member that degraded mid-stream (revoked region,
// reconnect in progress) reports Degraded while the group keeps serving
// through its healthy peers.
func (g *QueueGroup) MemberHealth() []Health {
	out := make([]Health, len(g.members))
	for i, m := range g.members {
		out[i] = transport.HealthOf(m.inner)
	}
	return out
}

// Connect establishes a connection from the application's host to the
// named target. For FabricAdaptive, the Connection Manager provisions a
// shared-memory region when client and target share the host and falls
// back to optimized TCP otherwise. With opts.Queues > 1 the returned
// Queue is the striped facade of a QueueGroup.
func (ctx *Ctx) Connect(targetNQN string, opts ConnectOptions) (*Queue, error) {
	if opts.Queues > 1 {
		g, err := ctx.ConnectGroup(targetNQN, opts)
		if err != nil {
			return nil, err
		}
		return g.Queue, nil
	}
	return ctx.connectOne(targetNQN, opts)
}

// ConnectGroup opens opts.Queues (at least one) independent connections
// to the target and stripes I/O across them by offset.
func (ctx *Ctx) ConnectGroup(targetNQN string, opts ConnectOptions) (*QueueGroup, error) {
	n := opts.Queues
	if n <= 0 {
		n = 1
	}
	single := opts
	single.Queues = 1
	members := make([]*Queue, 0, n)
	inners := make([]transport.Queue, 0, n)
	for i := 0; i < n; i++ {
		q, err := ctx.connectOne(targetNQN, single)
		if err != nil {
			for _, m := range members {
				m.Close()
			}
			return nil, fmt.Errorf("oaf: group member %d: %w", i, err)
		}
		members = append(members, q)
		inners = append(inners, q.inner)
	}
	striped := transport.NewStriped(opts.StripeUnit, inners...)
	shm := true
	for _, m := range members {
		shm = shm && m.SharedMemory
	}
	facade := &Queue{
		inner: striped, ctx: ctx, tracer: members[0].tracer,
		target: targetNQN, SharedMemory: shm,
	}
	return &QueueGroup{Queue: facade, members: members}, nil
}

// connectOne opens a single queue pair.
func (ctx *Ctx) connectOne(targetNQN string, opts ConnectOptions) (*Queue, error) {
	c := ctx.cluster
	te, ok := c.targets[targetNQN]
	if !ok {
		return nil, fmt.Errorf("oaf: unknown target %q", targetNQN)
	}
	clientHost, ok := c.hosts[ctx.hostName]
	if !ok {
		return nil, fmt.Errorf("oaf: application host %q not registered", ctx.hostName)
	}
	kind, design := dial.Defaults(opts.Fabric, opts.Design)
	if _, err := kind.Link(); err != nil {
		return nil, fmt.Errorf("oaf: %w", err)
	}
	if opts.QueueDepth <= 0 {
		opts.QueueDepth = 128
	}
	if opts.MaxIOSize <= 0 {
		opts.MaxIOSize = 1 << 20
	}
	tp := model.DefaultTCPTransport()
	if opts.ChunkSize > 0 {
		tp.ChunkSize = opts.ChunkSize
	}
	tp.BusyPoll = opts.BusyPoll
	tp.BatchSize = opts.Batch

	if opts.Tenant != "" {
		spec, known := c.qosReg.Lookup(opts.Tenant)
		if !known {
			return nil, fmt.Errorf("oaf: unknown tenant %q (register with AddTenant first)", opts.Tenant)
		}
		// The tenant's SLO tier steers the receive path unless the caller
		// pinned the knobs explicitly.
		tp.BusyPoll, tp.BatchSize = spec.SLO.Steer(tp.BusyPoll, tp.BatchSize)
	}
	// One token ledger per host, shared by every queue its applications
	// open; one per enforcing target, shared by every connection to it.
	hqos := c.qosReg.Shaper("host:"+ctx.hostName, c.w.Tel)
	var tqos *qos.Shaper
	if te.cfg.QoSEnforce {
		tqos = c.qosReg.Shaper("target:"+targetNQN, c.w.Tel)
	}

	o := dial.Options{
		Kind: kind,
		ConnOptions: session.ConnOptions{
			QueueDepth:     opts.QueueDepth,
			CommandTimeout: opts.CommandTimeout, MaxRetries: opts.MaxRetries,
			RetryBackoff: opts.RetryBackoff,
			Telemetry:    c.w.Tel, Tenant: opts.Tenant, QoS: hqos,
		},
		TargetQoS: tqos,
		TP:        tp,
		Design:    design,
	}
	pr := c.w.Serve(clientHost, te.svc, o, opts.MaxIOSize)
	if pr.Opts.Region != nil && opts.EncryptSHM {
		pr.Opts.Region.EnableEncryption(0xA5A5A5A5F00DFEED, 1.5e9)
	}
	tracer := netsim.NewTracer(targetNQN)
	pr.Link.A.AttachTracer(tracer)
	cl, err := dial.Connect(ctx.proc, pr.Link.A, pr.Opts)
	if err != nil {
		return nil, err
	}
	q := &Queue{inner: cl, ctx: ctx, tracer: tracer, target: targetNQN, tenant: opts.Tenant, srvTarget: pr.Server.Target}
	if ac, ok := cl.(*core.Client); ok {
		q.SharedMemory = ac.SHMEnabled()
	}
	c.queues = append(c.queues, q) // for cluster-wide snapshots
	return q, nil
}

// Write stores data at the byte offset (block aligned) and waits for
// completion.
func (q *Queue) Write(offset int64, data []byte) (*Result, error) {
	return q.wait(q.WriteAsync(offset, data))
}

// Read fetches size bytes at the offset and waits for completion.
func (q *Queue) Read(offset int64, size int) (*Result, error) {
	return q.wait(q.ReadAsync(offset, size))
}

// Flush issues an NVMe flush and waits for completion: it returns only
// once every previously acknowledged write has reached durable media.
// Against a write-back cached target this is the durability barrier that
// drains dirty lines; if a crash already lost unflushed data, the flush
// fails with a write-fault error instead of succeeding silently.
func (q *Queue) Flush() (*Result, error) {
	fut := transport.Submit(q.ctx.proc, q.inner, &transport.IO{Flush: true})
	return q.wait(&Async{fut: fut})
}

// WriteModeled issues a write whose payload is modeled (timing charged,
// no bytes materialized) — for bandwidth experiments.
func (q *Queue) WriteModeled(offset int64, size int) (*Result, error) {
	fut := transport.Submit(q.ctx.proc, q.inner, &transport.IO{Write: true, Offset: offset, Size: size})
	return q.wait(&Async{fut: fut})
}

// ReadModeled issues a modeled read.
func (q *Queue) ReadModeled(offset int64, size int) (*Result, error) {
	fut := transport.Submit(q.ctx.proc, q.inner, &transport.IO{Offset: offset, Size: size})
	return q.wait(&Async{fut: fut})
}

// Async is an in-flight I/O.
type Async struct {
	fut *sim.Future[*transport.Result]
}

// WriteAsync issues a write without waiting.
func (q *Queue) WriteAsync(offset int64, data []byte) *Async {
	return &Async{fut: transport.Submit(q.ctx.proc, q.inner, &transport.IO{
		Write: true, Offset: offset, Size: len(data), Data: data,
	})}
}

// WriteAsyncModeled issues a modeled write (no bytes materialized)
// without waiting.
func (q *Queue) WriteAsyncModeled(offset int64, size int) *Async {
	return &Async{fut: transport.Submit(q.ctx.proc, q.inner, &transport.IO{
		Write: true, Offset: offset, Size: size,
	})}
}

// ReadAsyncModeled issues a modeled read without waiting.
func (q *Queue) ReadAsyncModeled(offset int64, size int) *Async {
	return &Async{fut: transport.Submit(q.ctx.proc, q.inner, &transport.IO{
		Offset: offset, Size: size,
	})}
}

// ReadAsync issues a read without waiting.
func (q *Queue) ReadAsync(offset int64, size int) *Async {
	return &Async{fut: transport.Submit(q.ctx.proc, q.inner, &transport.IO{
		Offset: offset, Size: size, Data: make([]byte, size),
	})}
}

// Wait blocks until the I/O completes.
func (q *Queue) Wait(a *Async) (*Result, error) { return q.wait(a) }

func (q *Queue) wait(a *Async) (*Result, error) {
	res := a.fut.Wait(q.ctx.proc)
	if err := res.Err(); err != nil {
		return nil, err
	}
	return &Result{
		Data:       res.Data,
		Latency:    res.Latency,
		DeviceTime: res.IOTime,
		FabricTime: res.CommTime,
		OtherTime:  res.OtherTime,
	}, nil
}

// Close shuts the connection down cleanly.
func (q *Queue) Close() { q.inner.Close() }
