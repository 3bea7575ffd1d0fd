package session

import (
	"fmt"
	"sort"
	"sync/atomic"
	"time"

	"nvmeoaf/internal/mempool"
	"nvmeoaf/internal/netsim"
	"nvmeoaf/internal/nvme"
	"nvmeoaf/internal/pdu"
	"nvmeoaf/internal/qos"
	"nvmeoaf/internal/sim"
	"nvmeoaf/internal/target"
	"nvmeoaf/internal/telemetry"
	"nvmeoaf/internal/transport"
)

// ConnWire is what a transport binding implements per target-side
// connection. The engine owns the run loop, transmit coalescing, KATO
// watchdog, buffer-wait shedding, teardown, admin commands, and the
// conservative TCP-path write/read machinery; the wire owns the
// handshake response, read/write dispatch policy, and path-specific
// PDUs (shared-memory notify/release).
type ConnWire interface {
	// OnICReq answers the handshake (the adaptive fabric runs its
	// locality check here and advertises shared-memory geometry).
	OnICReq(req *pdu.ICReq)
	// TrType is the transport type advertised in the discovery log.
	TrType() uint8
	// PreLoop runs at the top of every run-loop iteration (the adaptive
	// fabric checks for region revocation here).
	PreLoop()
	// DispatchRead serves one read command.
	DispatchRead(cmd nvme.Command, transit time.Duration)
	// DispatchWrite serves one write command of the given payload size.
	DispatchWrite(cap *pdu.CapsuleCmd, size int, transit time.Duration)
	// HandlePDU handles transport-specific PDUs; returning false makes
	// the engine panic on the unexpected PDU.
	HandlePDU(p *sim.Proc, u pdu.PDU, transit time.Duration) bool
	// Teardown reclaims wire-owned per-connection state (the adaptive
	// fabric closes its chunked-read ack queues here).
	Teardown()
}

// TargetWire binds a transport's server to the engine: one ConnWire per
// accepted connection.
type TargetWire interface {
	NewConn(c *Conn) ConnWire
}

// ServeOptions is what a caller says about one target-side transport,
// whichever fabric it serves. Declared here once: TargetConfig and every
// binding's ServerConfig embed it, and a binding hands it to NewTarget
// whole.
type ServeOptions struct {
	// NQN selects the served subsystem.
	NQN string
	// KATO is the keep-alive timeout: a connection silent for longer is
	// torn down and its resources reclaimed (0 disables the watchdog).
	KATO time.Duration
	// MaxBufferWaiters bounds commands parked for pool buffers; beyond
	// it the server sheds load with a retryable typed error instead of
	// queueing without bound (0 = unbounded; moot without a pool).
	MaxBufferWaiters int
	// Telemetry receives connection, shedding, and keep-alive counters;
	// nil disables.
	Telemetry *telemetry.Sink
	// QoS is the target-side token-bucket enforcement point shared by
	// this target's connections; nil disables target-side admission.
	// Unlike the host-side gate (which parks), the target rejects
	// inadmissible commands with the retryable StatusTenantThrottled —
	// a server cannot hold client commands hostage waiting for tokens.
	QoS *qos.Shaper
	// OnCrash runs when Crash tears the target down, before connections
	// drop — the hook a write-back bdev cache uses to account its
	// unflushed dirty lines as lost.
	OnCrash func()
}

// TargetConfig configures the target-side session engine: the caller's
// ServeOptions plus what the binding owns.
type TargetConfig struct {
	ServeOptions
	// Label prefixes daemon/worker names and panics.
	Label string
	// ChunkSize is the data-path chunk (R2T grants, read streaming,
	// buffer accounting); BatchSize > 1 enables completion-reap
	// coalescing on transmit; BusyPoll > 0 spins the receive path.
	ChunkSize int
	BatchSize int
	BusyPoll  time.Duration
	// InterruptWakeups charges the endpoint wakeup penalty when the run
	// loop parks and traffic arrives. RDMA polling leaves it off.
	InterruptWakeups bool
	// Pool is the transport's data buffer pool (nil for transports that
	// place payloads directly, like RDMA).
	Pool *mempool.Pool
}

// Target is the transport-independent target connection core.
type Target struct {
	e    *sim.Engine
	tgt  *target.Target
	cfg  TargetConfig
	wire TargetWire
	tel  *telemetry.Sink

	eps     []*netsim.Endpoint
	conns   []*Conn
	crashed bool

	// liveBatch is the live completion-reap coalescing depth (atomic:
	// adjustable mid-run by the tuning controller, mirroring the host's
	// SetBatchSize).
	liveBatch atomic.Int32

	// Worker names, prebuilt so the per-command dispatch paths don't
	// concatenate strings on every I/O.
	readWorker, writeWorker, flushWorker string

	// BufferWaits counts commands that waited for pool buffers.
	BufferWaits int64
	// KAExpirations counts connections torn down by the KATO watchdog.
	KAExpirations int64
	// Shed counts commands rejected with a retryable error under pool
	// exhaustion.
	Shed int64
	// StaleMsgs counts PDUs for unknown commands (late data after a
	// client-side timeout or a teardown), dropped instead of panicking.
	StaleMsgs int64
}

// NewTarget builds the engine core for tgt.
func NewTarget(e *sim.Engine, tgt *target.Target, cfg TargetConfig, wire TargetWire) *Target {
	t := &Target{e: e, tgt: tgt, cfg: cfg, wire: wire, tel: cfg.Telemetry}
	if t.tel == nil {
		t.tel = telemetry.Disabled
	}
	t.liveBatch.Store(int32(cfg.BatchSize))
	t.readWorker = cfg.Label + "-read-worker"
	t.writeWorker = cfg.Label + "-write-worker"
	t.flushWorker = cfg.Label + "-flush-worker"
	return t
}

// Subsys exposes the served target (for wire-owned dispatch workers).
func (t *Target) Subsys() *target.Target { return t.tgt }

// NQN returns the served subsystem NQN.
func (t *Target) NQN() string { return t.cfg.NQN }

// Engine returns the simulation engine (for wire-owned workers).
func (t *Target) Engine() *sim.Engine { return t.e }

// Telemetry returns the active sink (never nil).
func (t *Target) Telemetry() *telemetry.Sink { return t.tel }

// SetBatchSize adjusts the completion-reap coalescing depth live: the
// next transmit drain merges up to n ready batches into one network
// message. Safe to call from outside the engine.
func (t *Target) SetBatchSize(n int) {
	if n < 0 {
		n = 0
	}
	t.liveBatch.Store(int32(n))
}

// LiveBatchSize returns the live reap-coalescing depth.
func (t *Target) LiveBatchSize() int { return int(t.liveBatch.Load()) }

// Serve starts a connection handler on ep and returns it.
func (t *Target) Serve(ep *netsim.Endpoint) *Conn {
	t.eps = append(t.eps, ep)
	return t.startConn(ep)
}

func (t *Target) startConn(ep *netsim.Endpoint) *Conn {
	conn := &Conn{
		t:        t,
		ep:       ep,
		txQ:      sim.NewQueue[txBatch](t.e, 0),
		kick:     sim.NewSignal(t.e),
		Writes:   make(map[uint16]*WriteCtx),
		WaitsQ:   sim.NewQueue[*AllocWait](t.e, 0),
		lastSeen: t.e.Now(),
	}
	conn.wire = t.wire.NewConn(conn)
	t.conns = append(t.conns, conn)
	t.e.GoDaemon(t.cfg.Label+"-server-conn", conn.run)
	if t.cfg.KATO > 0 {
		t.e.GoDaemon(t.cfg.Label+"-kato-watchdog", conn.watchdog)
	}
	return conn
}

// Crash simulates target-process death: every connection drops with all
// in-flight state (no goodbye messages), buffers return to the pool, and
// nothing is served until Restart. Clients recover through deadlines,
// retries, and reconnect.
func (t *Target) Crash() {
	if t.crashed {
		return
	}
	t.crashed = true
	if t.cfg.OnCrash != nil {
		t.cfg.OnCrash()
	}
	for _, c := range t.conns {
		c.closed = true
		c.kick.Fire()
	}
}

// Restart brings a crashed target back: a fresh connection handler
// starts listening on every served endpoint.
func (t *Target) Restart() {
	if !t.crashed {
		return
	}
	t.crashed = false
	t.conns = nil
	for _, ep := range t.eps {
		t.startConn(ep)
	}
}

// txBatch is a set of PDUs to transmit as one message — no caller posts
// more than two — and the pool buffers to release once they are on the
// wire. It travels through the transmit queue by value.
type txBatch struct {
	pdus [2]pdu.PDU
	n    int
	bufs []*mempool.Buf
}

// WriteCtx tracks reassembly of one conservative-flow write command.
// Real payloads are staged directly into the reserved pool elements (the
// DPDK receive path), not a private heap buffer.
type WriteCtx struct {
	Cmd      nvme.Command
	Size     int
	Received int
	Real     bool // client payload is real bytes, not modeled
	// Staged marks real payload scattered into the pool buffers below.
	Staged   bool
	Bufs     []*mempool.Buf
	Comm     time.Duration
	CopyTime time.Duration
}

// Gather materializes the staged payload into one contiguous buffer for
// the device execute; nil when the write carried no real bytes.
func (ctx *WriteCtx) Gather() []byte {
	if !ctx.Staged {
		return nil
	}
	return mempool.Gather(ctx.Bufs, ctx.Size)
}

// AllocWait is a command parked until pool buffers free up.
type AllocWait struct {
	need  int
	since sim.Time
	run   func(bufs []*mempool.Buf)
}

// Conn is one target-side connection driven by the engine.
type Conn struct {
	t    *Target
	wire ConnWire
	ep   *netsim.Endpoint
	txQ  *sim.Queue[txBatch]
	kick *sim.Signal
	// Writes tracks in-progress conservative-flow writes by CID.
	Writes map[uint16]*WriteCtx
	// WaitsQ holds commands waiting for buffer credits, FIFO.
	WaitsQ *sim.Queue[*AllocWait]
	// tenant is the connection's tenant, recovered from the Fabrics
	// Connect hostNQN; tview is its telemetry view (nil when untenanted).
	tenant   string
	tview    *telemetry.TenantView
	lastSeen sim.Time
	closed   bool
	// dead is set once the run loop exits: posts stop transmitting but
	// still run their cleanup callbacks so buffers return to the pool.
	dead bool
	// Expired reports a keep-alive timeout teardown.
	Expired bool
	// Completion-reap scratch (run-loop only; reused so the coalesced
	// transmit path stays allocation-free).
	txPDUs []pdu.PDU
	txBufs []*mempool.Buf
	rxPDUs []pdu.PDU
	// freeReads recycles read ops, see readOp.
	freeReads []*readOp
}

// Target returns the owning engine core.
func (c *Conn) Target() *Target { return c.t }

// Tenant returns the connection's tenant ("" when untenanted).
func (c *Conn) Tenant() string { return c.tenant }

// qosAdmit charges one I/O command against the connection tenant's
// bucket at the target-side shaper. On refusal it posts the retryable
// typed throttle status and returns false — a server sheds rather than
// holding client commands hostage waiting for tokens.
func (c *Conn) qosAdmit(cmd nvme.Command) bool {
	sh := c.t.cfg.QoS
	if sh == nil || c.tenant == "" {
		return true
	}
	now := int64(c.t.e.Now())
	b := sh.Bucket(c.tenant, now)
	if !b.Limited() || b.TryTake(now, int64(cmd.NLB())*transport.BlockSize) {
		return true
	}
	c.tview.Inc(telemetry.TCtrThrottled)
	c.t.tel.Trace(now, telemetry.EvTenantThrottle, cmd.CID, "", c.tenant)
	c.Post(&pdu.CapsuleResp{Rsp: nvme.Completion{CID: cmd.CID, Status: nvme.StatusTenantThrottled}})
	return false
}

// Kick wakes the connection's run loop.
func (c *Conn) Kick() { c.kick.Fire() }

// NoteStale counts a PDU for an unknown command, dropped instead of
// panicking (late data after a client-side timeout or a teardown).
func (c *Conn) NoteStale() {
	c.t.StaleMsgs++
	c.t.tel.Inc(telemetry.CtrSrvStaleMsgs)
}

// watchdog enforces the keep-alive timeout: a connection with no traffic
// for KATO is torn down and its resources reclaimed.
func (c *Conn) watchdog(p *sim.Proc) {
	for !c.closed {
		p.Sleep(c.t.cfg.KATO / 2)
		if c.closed {
			return
		}
		if p.Now().Sub(c.lastSeen) > c.t.cfg.KATO {
			c.Expired = true
			c.closed = true
			c.t.KAExpirations++
			c.t.tel.Inc(telemetry.CtrSrvKATOExpiry)
			c.t.tel.Trace(int64(p.Now()), telemetry.EvKATOExpired, 0, "", "watchdog")
			c.kick.Fire()
			return
		}
	}
}

// Post enqueues one or two PDUs as an outbound message and wakes the
// handler; a dead connection drops them.
func (c *Conn) Post(pdus ...pdu.PDU) {
	if c.dead {
		return
	}
	var b txBatch
	if len(pdus) > len(b.pdus) {
		panic("session: Post of more PDUs than a txBatch holds")
	}
	b.n = copy(b.pdus[:], pdus)
	c.txQ.TryPut(b)
	c.kick.Fire()
}

// run is the connection's event loop.
func (c *Conn) run(p *sim.Proc) {
	c.ep.OnDeliver = c.kick.Fire
	for !c.closed {
		c.wire.PreLoop()
		worked := false
		for {
			msg := c.ep.TryRecv(p)
			if msg == nil {
				break
			}
			c.handle(p, msg)
			worked = true
		}
		if c.drainTx(p) {
			worked = true
		}
		// Retry commands waiting for buffers (frees may have happened).
		c.retryWaits()
		if worked {
			continue
		}
		if c.t.cfg.BusyPoll > 0 {
			if msg := c.ep.RecvPoll(p, c.t.cfg.BusyPoll); msg != nil {
				c.handle(p, msg)
				continue
			}
			p.Sleep(PollMissCPU)
		}
		c.kick.Reset()
		if c.ep.Pending() > 0 || c.txQ.Len() > 0 || c.closed {
			continue
		}
		c.kick.Wait(p)
		if c.t.cfg.InterruptWakeups && c.ep.Pending() > 0 {
			c.ep.ChargeWakeup(p)
		}
	}
	c.teardown(p, !c.t.crashed)
	// A KATO teardown leaves the endpoint live: listen again so the
	// client's automatic reconnect finds a fresh connection handler.
	if c.Expired && !c.t.crashed {
		c.t.startConn(c.ep)
	}
}

// drainTx flushes the transmit queue. With completion-reap coalescing
// enabled (BatchSize > 1) up to BatchSize ready batches merge into one
// network message — the target-side mirror of doorbell batching: one
// per-message CPU charge and one client wakeup reap a whole train of
// completions. Every merged batch's buffers are still released after
// its bytes are on the wire.
func (c *Conn) drainTx(p *sim.Proc) bool {
	reap := 1
	if b := int(c.t.liveBatch.Load()); b > 1 {
		reap = b
	}
	worked := false
	for {
		batch, ok := c.txQ.TryGet()
		if !ok {
			break
		}
		worked = true
		if reap <= 1 {
			transport.SendPDUs(p, c.ep, batch.pdus[:batch.n]...)
			c.t.tel.Add(telemetry.CtrPDUsTx, int64(batch.n))
			FreeBufs(batch.bufs)
			continue
		}
		pdus := append(c.txPDUs[:0], batch.pdus[:batch.n]...)
		bufs := append(c.txBufs[:0], batch.bufs...)
		merged := 1
		for merged < reap {
			next, ok := c.txQ.TryGet()
			if !ok {
				break
			}
			pdus = append(pdus, next.pdus[:next.n]...)
			bufs = append(bufs, next.bufs...)
			merged++
		}
		transport.SendPDUs(p, c.ep, pdus...)
		c.t.tel.Add(telemetry.CtrPDUsTx, int64(len(pdus)))
		c.t.tel.Observe(telemetry.HistReapDepth, int64(merged))
		FreeBufs(bufs)
		clear(bufs)
		c.txPDUs, c.txBufs = pdus[:0], bufs[:0]
	}
	return worked
}

// teardown reclaims every connection resource: queued transmissions are
// flushed (their buffers are always released; the bytes only transmit
// on a graceful close), half-received writes free their pool buffers,
// parked buffer-waiters drain, and the wire reclaims its own state —
// a KATO expiry mid-transfer must not leak pool credits the other
// connections need.
func (c *Conn) teardown(p *sim.Proc, transmit bool) {
	c.dead = true
	for {
		batch, ok := c.txQ.TryGet()
		if !ok {
			break
		}
		if transmit {
			transport.SendPDUs(p, c.ep, batch.pdus[:batch.n]...)
			c.t.tel.Add(telemetry.CtrPDUsTx, int64(batch.n))
		}
		FreeBufs(batch.bufs)
	}
	for _, cid := range SortedWriteCIDs(c.Writes) {
		FreeBufs(c.Writes[cid].Bufs)
		delete(c.Writes, cid)
	}
	for {
		if _, ok := c.WaitsQ.TryGet(); !ok {
			break
		}
	}
	c.wire.Teardown()
}

// SortedWriteCIDs returns the keys of a write-reassembly map in
// deterministic order (map iteration would vary run to run).
func SortedWriteCIDs(m map[uint16]*WriteCtx) []uint16 {
	cids := make([]uint16, 0, len(m))
	for cid := range m {
		cids = append(cids, cid)
	}
	sort.Slice(cids, func(i, j int) bool { return cids[i] < cids[j] })
	return cids
}

// retryWaits re-attempts buffer allocation for parked commands in FIFO
// order, stopping at the first that still cannot be satisfied.
func (c *Conn) retryWaits() {
	for c.WaitsQ.Len() > 0 {
		w, _ := c.WaitsQ.TryGet()
		bufs, ok := c.allocBufs(w.need)
		if !ok {
			// Put it back at the head position, preserving FIFO order.
			rest := []*AllocWait{w}
			for c.WaitsQ.Len() > 0 {
				x, _ := c.WaitsQ.TryGet()
				rest = append(rest, x)
			}
			for _, x := range rest {
				c.WaitsQ.TryPut(x)
			}
			return
		}
		c.t.tel.ObserveDuration(telemetry.HistBufWait, c.t.e.Now().Sub(w.since))
		w.run(bufs)
	}
}

// allocBufs grabs n buffers from the shared pool, all or nothing.
func (c *Conn) allocBufs(n int) ([]*mempool.Buf, bool) {
	if c.t.cfg.Pool.Available() < n {
		return nil, false
	}
	bufs := make([]*mempool.Buf, 0, n)
	for i := 0; i < n; i++ {
		b, ok := c.t.cfg.Pool.Get()
		if !ok {
			for _, prev := range bufs {
				prev.Free()
			}
			return nil, false
		}
		bufs = append(bufs, b)
	}
	return bufs, true
}

// WithBufs runs fn once n pool buffers are available. Under exhaustion
// the command parks in the wait queue (flow-control back-pressure);
// past MaxBufferWaiters the server sheds it with a retryable typed
// error instead of queueing without bound.
func (c *Conn) WithBufs(cid uint16, n int, fn func(bufs []*mempool.Buf)) {
	if bufs, ok := c.allocBufs(n); ok {
		fn(bufs)
		return
	}
	if max := c.t.cfg.MaxBufferWaiters; max > 0 && c.WaitsQ.Len() >= max {
		c.t.Shed++
		c.t.tel.Inc(telemetry.CtrSrvShed)
		c.t.tel.Trace(int64(c.t.e.Now()), telemetry.EvShed, cid, "", "pool-exhausted")
		if c.tenant != "" {
			// A shed buffer wait is work this tenant caused and wasted:
			// count it against the tenant and debit its bucket for the
			// buffers it tried to pin, so a flood of oversized waits
			// cannot starve the pool for free.
			c.tview.Inc(telemetry.TCtrSheds)
			if sh := c.t.cfg.QoS; sh != nil {
				now := int64(c.t.e.Now())
				sh.Bucket(c.tenant, now).Penalize(now, int64(n*c.t.cfg.ChunkSize))
			}
		}
		c.Post(&pdu.CapsuleResp{Rsp: nvme.Completion{CID: cid, Status: nvme.StatusCommandInterrupted}})
		return
	}
	c.t.BufferWaits++
	c.t.tel.Inc(telemetry.CtrSrvBufWaits)
	c.WaitsQ.TryPut(&AllocWait{need: n, since: c.t.e.Now(), run: fn})
}

// FreeBufs returns a buffer set to its pool.
func FreeBufs(bufs []*mempool.Buf) {
	for _, b := range bufs {
		b.Free()
	}
}

// handle processes one received message.
func (c *Conn) handle(p *sim.Proc, msg *netsim.Message) {
	c.lastSeen = p.Now()
	transit := p.Now().Sub(msg.SentAt)
	pdus, err := transport.DecodeAll(msg, c.rxPDUs)
	c.rxPDUs = pdus
	if err != nil {
		panic(fmt.Sprintf("%s server: bad message: %v", c.t.cfg.Label, err))
	}
	c.t.tel.Add(telemetry.CtrPDUsRx, int64(len(pdus)))
	for _, u := range pdus {
		switch v := u.(type) {
		case *pdu.ICReq:
			c.wire.OnICReq(v)
		case *pdu.CapsuleCmd:
			c.onCommand(p, v, transit)
		case *pdu.CmdBatch:
			// A doorbell-batched capsule train: dispatch every entry as if
			// it arrived in its own capsule. Fabric transit is attributed
			// once (the train crossed the wire as one message). Reads
			// dispatch straight off the command value — only entries that
			// carry payload state need a capsule shell (which escapes
			// through the wire interface and so must heap-allocate).
			for i := range v.Entries {
				e := &v.Entries[i]
				if e.Cmd.Opcode == nvme.OpRead && e.Cmd.Flags&transport.AdminFlag == 0 {
					if c.qosAdmit(e.Cmd) {
						c.wire.DispatchRead(e.Cmd, transit)
					}
				} else {
					cc := pdu.CapsuleCmd{Cmd: e.Cmd, Data: e.Data, VirtualLen: e.VirtualLen}
					c.onCommand(p, &cc, transit)
				}
				transit = 0
			}
		case *pdu.Data:
			c.onData(p, v, transit)
		case *pdu.Term:
			c.closed = true
			c.kick.Fire()
		default:
			if !c.wire.HandlePDU(p, u, transit) {
				panic(fmt.Sprintf("%s server: unexpected PDU %v", c.t.cfg.Label, u.Type()))
			}
		}
		transit = 0 // attribute a message's transit once
	}
	msg.Release()
}

// onCommand dispatches a command capsule.
func (c *Conn) onCommand(p *sim.Proc, cap *pdu.CapsuleCmd, transit time.Duration) {
	cmd := cap.Cmd
	if cmd.Opcode == nvme.FabricsCommandType {
		// Fabrics Connect validates the requested subsystem NQN before
		// any I/O is admitted.
		status := nvme.StatusInvalidField
		if cmd.CDW10 == nvme.FctypeConnect {
			if hostNQN, subNQN, err := nvme.DecodeConnectData(cap.Data); err == nil && subNQN == c.t.cfg.NQN {
				status = nvme.StatusSuccess
				// The tenant rides inside the hostNQN field: recover it
				// here so every command on this connection is attributed
				// (and, when a shaper is configured, admission-charged)
				// to the right tenant.
				_, c.tenant = SplitTenantHostNQN(hostNQN)
				c.tview = c.t.tel.Tenant(c.tenant)
			}
		}
		c.Post(&pdu.CapsuleResp{Rsp: nvme.Completion{CID: cmd.CID, Status: status}})
		return
	}
	if cmd.Flags&transport.AdminFlag != 0 {
		c.onAdmin(cmd, transit)
		return
	}
	switch cmd.Opcode {
	case nvme.OpRead:
		if !c.qosAdmit(cmd) {
			return
		}
		c.wire.DispatchRead(cmd, transit)
	case nvme.OpWrite:
		if !c.qosAdmit(cmd) {
			return
		}
		c.wire.DispatchWrite(cap, int(cmd.NLB())*transport.BlockSize, transit)
	case nvme.OpFlush:
		// Copy into case scope: capturing cmd itself would heap-allocate
		// it for every command that passes through this dispatch.
		fcmd := cmd
		c.t.e.Go(c.t.flushWorker, func(w *sim.Proc) {
			res := c.t.tgt.ExecuteAs(w, c.t.cfg.NQN, c.tenant, fcmd, nil)
			c.Post(c.Resp(res, transit, 0))
		})
	default:
		c.Post(&pdu.CapsuleResp{Rsp: nvme.Completion{CID: cmd.CID, Status: nvme.StatusInvalidOpcode}})
	}
}

// onAdmin dispatches admin-queue commands.
func (c *Conn) onAdmin(cmd nvme.Command, transit time.Duration) {
	switch cmd.Opcode {
	case nvme.AdminIdentify:
		c.execIdentify(cmd, transit)
	case nvme.AdminGetLogPage:
		c.execGetLogPage(cmd, transit)
	case nvme.AdminKeepAlive:
		c.Post(&pdu.CapsuleResp{
			Rsp:       nvme.Completion{CID: cmd.CID, Status: nvme.StatusSuccess},
			TgtCommNs: uint64(transit),
		})
	default:
		c.Post(&pdu.CapsuleResp{Rsp: nvme.Completion{CID: cmd.CID, Status: nvme.StatusInvalidOpcode}})
	}
}

// execGetLogPage serves the discovery log page (Get Log Page, LID 0x70).
func (c *Conn) execGetLogPage(cmd nvme.Command, comm time.Duration) {
	if cmd.CDW10&0xFF != nvme.LIDDiscovery&0xFF {
		c.Post(&pdu.CapsuleResp{Rsp: nvme.Completion{CID: cmd.CID, Status: nvme.StatusInvalidField}})
		return
	}
	page := c.t.tgt.DiscoveryLog(c.wire.TrType(), "storage-host")
	c.Post(
		&pdu.Data{Dir: pdu.TypeC2HData, CID: cmd.CID, Payload: page, Last: true},
		&pdu.CapsuleResp{
			Rsp:       nvme.Completion{CID: cmd.CID, Status: nvme.StatusSuccess},
			TgtCommNs: uint64(comm),
		})
}

// execIdentify serves an identify admin command with a real data page.
func (c *Conn) execIdentify(cmd nvme.Command, comm time.Duration) {
	var page []byte
	switch cmd.CDW10 {
	case nvme.CNSController:
		id, err := c.t.tgt.IdentifyController(c.t.cfg.NQN)
		if err != nil {
			c.Post(&pdu.CapsuleResp{Rsp: nvme.Completion{CID: cmd.CID, Status: nvme.StatusInvalidField}})
			return
		}
		page = id.Encode()
	case nvme.CNSNamespace:
		sub, ok := c.t.tgt.Subsystem(c.t.cfg.NQN)
		if !ok {
			c.Post(&pdu.CapsuleResp{Rsp: nvme.Completion{CID: cmd.CID, Status: nvme.StatusInvalidField}})
			return
		}
		ns, ok := sub.Namespace(cmd.NSID)
		if !ok {
			c.Post(&pdu.CapsuleResp{Rsp: nvme.Completion{CID: cmd.CID, Status: nvme.StatusInvalidNamespace}})
			return
		}
		idns := ns.Identify()
		page = idns.Encode()
	default:
		c.Post(&pdu.CapsuleResp{Rsp: nvme.Completion{CID: cmd.CID, Status: nvme.StatusInvalidField}})
		return
	}
	c.Post(
		&pdu.Data{Dir: pdu.TypeC2HData, CID: cmd.CID, Payload: page, Last: true},
		&pdu.CapsuleResp{
			Rsp:       nvme.Completion{CID: cmd.CID, Status: nvme.StatusSuccess},
			TgtCommNs: uint64(comm),
		})
}

// StartConservativeWrite grants an R2T once buffers are reserved — the
// conservative (non-in-capsule) write flow shared by the TCP data paths.
func (c *Conn) StartConservativeWrite(cmd nvme.Command, size int, transit time.Duration) {
	if stale, ok := c.Writes[cmd.CID]; ok {
		// A retried command reused the CID of an abandoned earlier attempt
		// whose half-received grant is still parked here: reclaim it before
		// the new grant overwrites the map entry.
		FreeBufs(stale.Bufs)
		delete(c.Writes, cmd.CID)
		c.NoteStale()
	}
	need := transport.Chunks(size, c.t.cfg.ChunkSize)
	c.WithBufs(cmd.CID, need, func(bufs []*mempool.Buf) {
		ctx := &WriteCtx{Cmd: cmd, Size: size, Bufs: bufs, Comm: transit, Real: cmd.PRP2 == 1}
		c.Writes[cmd.CID] = ctx
		c.Post(&pdu.R2T{CID: cmd.CID, TTag: cmd.CID, Offset: 0, Length: uint32(size)})
	})
}

// onData accumulates H2CData for a conservative write. Data for an
// unknown CID (late chunks of a write a teardown or failover already
// reclaimed) is dropped, not fatal.
func (c *Conn) onData(p *sim.Proc, d *pdu.Data, transit time.Duration) {
	ctx, ok := c.Writes[d.CID]
	if !ok {
		c.NoteStale()
		return
	}
	n := len(d.Payload)
	if n == 0 {
		n = d.VirtualLen
	}
	if d.Payload != nil {
		mempool.Scatter(ctx.Bufs, int(d.Offset), d.Payload)
		ctx.Staged = true
	}
	ctx.Received += n
	ctx.Comm += transit
	if ctx.Received >= ctx.Size {
		delete(c.Writes, d.CID)
		c.ExecWrite(ctx.Cmd, ctx.Size, ctx.Gather(), ctx.Comm, ctx.Bufs, ctx.CopyTime)
	}
}

// ExecWrite runs a fully received write on a device worker.
func (c *Conn) ExecWrite(cmd nvme.Command, size int, data []byte, comm time.Duration, bufs []*mempool.Buf, copyTime time.Duration) {
	c.t.e.Go(c.t.writeWorker, func(w *sim.Proc) {
		res := c.t.tgt.ExecuteAs(w, c.t.cfg.NQN, c.tenant, cmd, data)
		if bufs != nil {
			FreeBufs(bufs)
			c.kick.Fire() // buffer credits freed: retry waiters
		}
		c.Post(c.Resp(res, comm, copyTime))
	})
}

// readOp is one read between dispatch and its worker's hand-off: what
// StartRead would otherwise capture in two closures. Ops go back to
// Conn.freeReads with their callbacks bound, so a read allocates neither.
type readOp struct {
	c       *Conn
	cmd     nvme.Command
	transit time.Duration
	size    int
	bufs    []*mempool.Buf
	done    ReadDone
	onBufs  func(bufs []*mempool.Buf) // op.spawn
	onProc  func(w *sim.Proc)         // op.exec
}

// ReadDone receives a read's execute result on its device worker, with the
// reserved buffers: SendReadOverTCP's arguments plus the worker. A wire
// passes one bound once, not a closure per command.
type ReadDone func(w *sim.Proc, cmd nvme.Command, size int, res target.ExecResult, transit time.Duration, bufs []*mempool.Buf)

// StartRead reserves chunk buffers and runs the read on a device worker,
// which hands the result to done, or streams it with SendReadOverTCP when
// done is nil — the whole read path of a wire with no alternate route. A
// device failure is answered directly.
func (c *Conn) StartRead(cmd nvme.Command, transit time.Duration, done ReadDone) {
	var op *readOp
	if n := len(c.freeReads); n > 0 {
		op, c.freeReads = c.freeReads[n-1], c.freeReads[:n-1]
	} else {
		op = &readOp{c: c}
		op.onBufs, op.onProc = op.spawn, op.exec
	}
	op.cmd, op.transit, op.done = cmd, transit, done
	op.size = int(cmd.NLB()) * transport.BlockSize
	c.WithBufs(cmd.CID, transport.Chunks(op.size, c.t.cfg.ChunkSize), op.onBufs)
}

func (op *readOp) spawn(bufs []*mempool.Buf) {
	op.bufs = bufs
	op.c.t.e.Go(op.c.t.readWorker, op.onProc)
}

func (op *readOp) exec(w *sim.Proc) {
	c, cmd, transit, size, bufs, done := op.c, op.cmd, op.transit, op.size, op.bufs, op.done
	op.bufs, op.done = nil, nil
	c.freeReads = append(c.freeReads, op)
	// A read that fits one element lands in it: the device fills the
	// reserved buffer, which stays reserved until the payload is on the
	// wire. A multi-element read gets a device-allocated slice.
	res := c.t.tgt.ExecuteAs(w, c.t.cfg.NQN, c.tenant, cmd, mempool.Span(bufs, 0, size))
	switch {
	case res.CQE.Status.IsError():
		FreeBufs(bufs)
		c.kick.Fire()
		c.Post(c.Resp(res, transit, 0))
	case done == nil:
		c.SendReadOverTCP(cmd, size, res, transit, bufs)
	default:
		done(w, cmd, size, res, transit, bufs)
	}
}

// SendReadOverTCP streams the payload as chunked C2HData PDUs; the final
// chunk travels with the response capsule in one message, and the
// reserved buffers release once those bytes are on the wire.
func (c *Conn) SendReadOverTCP(cmd nvme.Command, size int, res target.ExecResult, transit time.Duration, bufs []*mempool.Buf) {
	if c.dead {
		// Connection torn down while the read executed: reclaim without
		// transmitting.
		FreeBufs(bufs)
		return
	}
	transport.ChunkSizes(size, c.t.cfg.ChunkSize, func(off, n int) {
		d := &pdu.Data{Dir: pdu.TypeC2HData, CID: cmd.CID, Offset: uint32(off), Last: off+n >= size}
		if res.Data != nil {
			d.Payload = res.Data[off : off+n]
		} else {
			d.VirtualLen = n
		}
		b := txBatch{n: 1}
		b.pdus[0] = d
		if d.Last {
			b.pdus[1], b.n, b.bufs = c.Resp(res, transit, 0), 2, bufs
		}
		c.txQ.TryPut(b)
	})
	c.kick.Fire()
}

// Resp builds the response capsule with the timing trailer; the target's
// shared-memory copy time is accounted as target-side "other" (buffer
// management).
func (c *Conn) Resp(res target.ExecResult, comm time.Duration, copyTime time.Duration) *pdu.CapsuleResp {
	return &pdu.CapsuleResp{
		Rsp:        res.CQE,
		IOTimeNs:   uint64(res.IOTime),
		TgtCommNs:  uint64(comm),
		TgtOtherNs: uint64(res.OtherTime + copyTime),
	}
}
