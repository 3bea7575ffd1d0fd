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
	// DispatchRead serves one read command (Conn.StartRead).
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
		Writes:   make(map[uint16]*CmdSlot),
		WaitsQ:   sim.NewQueue[*CmdSlot](t.e, 0),
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
// more than two — and the command slot that holds them, released once
// they are on the wire (nil for PDUs of no command). It travels through
// the transmit queue by value.
type txBatch struct {
	pdus [2]pdu.PDU
	n    int
	slot *CmdSlot
}

// Conn is one target-side connection driven by the engine.
type Conn struct {
	t    *Target
	wire ConnWire
	ep   *netsim.Endpoint
	txQ  *sim.Queue[txBatch]
	kick *sim.Signal
	// Writes tracks in-progress conservative-flow writes by CID.
	Writes map[uint16]*CmdSlot
	// WaitsQ holds commands waiting for buffer credits, FIFO.
	WaitsQ *sim.Queue[*CmdSlot]
	// tenant is the connection's tenant, recovered from the Fabrics
	// Connect hostNQN; tview is its telemetry view (nil when untenanted).
	tenant   string
	tview    *telemetry.TenantView
	lastSeen sim.Time
	closed   bool
	// dead is set once the run loop exits: posts are dropped, and a
	// command's slot and buffers return when the command releases it.
	dead bool
	// Expired reports a keep-alive timeout teardown.
	Expired bool
	// Completion-reap scratch (run-loop only; reused so the coalesced
	// transmit path stays allocation-free).
	txPDUs  []pdu.PDU
	txSlots []*CmdSlot
	// dec decodes received messages; what it returns is valid until the
	// run loop's next message.
	dec pdu.Decoder
	// free holds the command slots no command holds, see CmdSlot.
	free []*CmdSlot
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
func (c *Conn) Post(pdus ...pdu.PDU) { c.post(nil, pdus) }

// post enqueues pdus as one message; a non-nil s holds PDUs that live in
// that slot, which the message keeps until it is on the wire.
func (c *Conn) post(s *CmdSlot, pdus []pdu.PDU) {
	if c.dead {
		return
	}
	b := txBatch{slot: s}
	if len(pdus) > len(b.pdus) {
		panic("session: Post of more PDUs than a txBatch holds")
	}
	b.n = copy(b.pdus[:], pdus)
	if s != nil {
		s.pins++
	}
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
// completions. Every merged batch's slot (and with it the buffers of a
// read) is still released after its bytes are on the wire.
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
			batch.sent()
			continue
		}
		pdus := append(c.txPDUs[:0], batch.pdus[:batch.n]...)
		slots := append(c.txSlots[:0], batch.slot)
		merged := 1
		for merged < reap {
			next, ok := c.txQ.TryGet()
			if !ok {
				break
			}
			pdus = append(pdus, next.pdus[:next.n]...)
			slots = append(slots, next.slot)
			merged++
		}
		transport.SendPDUs(p, c.ep, pdus...)
		c.t.tel.Add(telemetry.CtrPDUsTx, int64(len(pdus)))
		c.t.tel.Observe(telemetry.HistReapDepth, int64(merged))
		for _, s := range slots {
			if s != nil {
				s.Release()
			}
		}
		clear(slots)
		c.txPDUs, c.txSlots = pdus[:0], slots[:0]
	}
	return worked
}

// sent drops the batch's hold on its slot once the PDUs are on the wire
// (or dropped by a teardown).
func (b *txBatch) sent() {
	if b.slot != nil {
		b.slot.Release()
	}
}

// teardown reclaims every connection resource: queued transmissions are
// flushed (their slots and buffers are always released; the bytes only
// transmit on a graceful close), half-received writes free their pool
// buffers, parked buffer-waiters drain, and the wire reclaims its own
// state — a KATO expiry mid-transfer must not leak pool credits the
// other connections need. A command still on a device worker releases
// its own slot when the worker is done.
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
		batch.sent()
	}
	for _, cid := range SortedWriteCIDs(c.Writes) {
		s := c.Writes[cid]
		s.FreeBufs()
		delete(c.Writes, cid)
		s.Release()
	}
	for {
		s, ok := c.WaitsQ.TryGet()
		if !ok {
			break
		}
		s.Release()
	}
	c.wire.Teardown()
}

// SortedWriteCIDs returns the keys of a write-reassembly map in
// deterministic order (map iteration would vary run to run).
func SortedWriteCIDs(m map[uint16]*CmdSlot) []uint16 {
	cids := make([]uint16, 0, len(m))
	for cid := range m {
		cids = append(cids, cid)
	}
	sort.Slice(cids, func(i, j int) bool { return cids[i] < cids[j] })
	return cids
}

// retryWaits re-attempts buffer allocation for parked commands in FIFO
// order, stopping at the first that still cannot be satisfied (it stays
// at the head).
func (c *Conn) retryWaits() {
	for {
		w, ok := c.WaitsQ.Peek()
		if !ok || !c.takeBufs(w, w.need) {
			return
		}
		c.WaitsQ.TryGet()
		c.t.tel.ObserveDuration(telemetry.HistBufWait, c.t.e.Now().Sub(w.since))
		w.then(w)
	}
}

// handle processes one received message.
func (c *Conn) handle(p *sim.Proc, msg *netsim.Message) {
	c.lastSeen = p.Now()
	transit := p.Now().Sub(msg.SentAt)
	pdus, err := transport.DecodeAll(msg, &c.dec)
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
			// dispatch straight off the command value; entries that carry
			// payload state get a capsule shell from the decoder.
			for i := range v.Entries {
				e := &v.Entries[i]
				if e.Cmd.Opcode == nvme.OpRead && e.Cmd.Flags&transport.AdminFlag == 0 {
					if c.qosAdmit(e.Cmd) {
						c.wire.DispatchRead(e.Cmd, transit)
					}
				} else {
					c.onCommand(p, c.dec.Capsule(e), transit)
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
		c.Exec(c.Acquire(cmd, 0, transit), 0, c.t.flushWorker, execWrite)
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
	c.reclaimStaleWrite(cmd.CID)
	s := c.Acquire(cmd, size, transit)
	c.reserve(s, transport.Chunks(size, c.t.cfg.ChunkSize), (*CmdSlot).grantWrite)
}

// reclaimStaleWrite frees the half-received grant cid still holds in
// Writes: a retried command reused the CID of an abandoned earlier
// attempt. Both the retry's arrival and its grant check, since the two
// attempts may wait for buffers together and be granted in turn.
func (c *Conn) reclaimStaleWrite(cid uint16) {
	if stale, ok := c.Writes[cid]; ok {
		stale.FreeBufs()
		delete(c.Writes, cid)
		stale.Release()
		c.NoteStale()
	}
}

// grantWrite registers a conservative write for its data PDUs and grants
// the whole transfer.
func (s *CmdSlot) grantWrite() {
	s.c.reclaimStaleWrite(s.Cmd.CID)
	s.c.Writes[s.Cmd.CID] = s
	s.r2t = pdu.R2T{CID: s.Cmd.CID, TTag: s.Cmd.CID, Offset: 0, Length: uint32(s.Size)}
	s.Post(&s.r2t)
}

// onData accumulates H2CData for a conservative write. Data for an
// unknown CID (late chunks of a write a teardown or failover already
// reclaimed) is dropped, not fatal. Real payload is staged directly into
// the reserved pool elements (the DPDK receive path), not a private heap
// buffer.
func (c *Conn) onData(p *sim.Proc, d *pdu.Data, transit time.Duration) {
	s, ok := c.Writes[d.CID]
	if !ok {
		c.NoteStale()
		return
	}
	n := len(d.Payload)
	if n == 0 {
		n = d.VirtualLen
	}
	if d.Payload != nil {
		mempool.Scatter(s.Bufs, int(d.Offset), d.Payload)
		s.Staged = true
	}
	c.WriteProgress(s, n, transit)
}

// WriteProgress accounts n more payload bytes of a reassembling write,
// which arrived with the given fabric transit. Once the whole payload is
// in, the write leaves Writes and executes on a device worker; it
// reports whether it did.
func (c *Conn) WriteProgress(s *CmdSlot, n int, transit time.Duration) bool {
	s.received += n
	s.comm += transit
	if s.received < s.Size {
		return false
	}
	delete(c.Writes, s.Cmd.CID)
	if s.Staged {
		s.data = mempool.Gather(s.Bufs, s.Size)
	}
	c.Exec(s, 0, c.t.writeWorker, execWrite)
	return true
}

// ExecWrite runs a write whose payload came with the command (in-capsule,
// or placed by the HCA; nil when modeled) on a device worker.
func (c *Conn) ExecWrite(cmd nvme.Command, size int, data []byte, transit time.Duration) {
	s := c.Acquire(cmd, size, transit)
	s.data = data
	c.Exec(s, 0, c.t.writeWorker, execWrite)
}

// execWrite executes a command whose payload, if any, is in hand — a
// write, or a flush, which has none — and answers it.
func execWrite(w *sim.Proc, s *CmdSlot) {
	res := s.Execute(w, s.data)
	if len(s.Bufs) > 0 {
		s.FreeBufs()
		s.c.kick.Fire() // buffer credits freed: retry waiters
	}
	s.Post(s.Resp(res, s.CopyTime))
	s.Release()
}

// StartRead reserves chunk buffers (none without a pool: the payload is
// placed directly) and runs work on a device worker; work begins with
// CmdSlot.ExecRead. A nil work streams the result with SendReadOverTCP —
// the whole read path of a wire with no alternate route.
func (c *Conn) StartRead(cmd nvme.Command, transit time.Duration, work Work) {
	size := int(cmd.NLB()) * transport.BlockSize
	s := c.Acquire(cmd, size, transit)
	need := 0
	if c.t.cfg.Pool != nil {
		need = transport.Chunks(size, c.t.cfg.ChunkSize)
	}
	if work == nil {
		work = readOverTCP
	}
	c.Exec(s, need, c.t.readWorker, work)
}

func readOverTCP(w *sim.Proc, s *CmdSlot) {
	if res, ok := s.ExecRead(w); ok {
		s.c.SendReadOverTCP(s, res)
	}
}

// ExecRead executes the slot's read on its device worker. A read that
// fits one element lands in it: the device fills the reserved buffer,
// which stays reserved until the payload is on the wire. A multi-element
// read gets a device-allocated slice. A device failure is answered here,
// which ends the command's hold on the slot, and reports false; otherwise
// the caller sends the payload.
func (s *CmdSlot) ExecRead(w *sim.Proc) (target.ExecResult, bool) {
	var dst []byte
	if len(s.Bufs) > 0 {
		dst = mempool.Span(s.Bufs, 0, s.Size)
	}
	res := s.Execute(w, dst)
	if !res.CQE.Status.IsError() {
		return res, true
	}
	if len(s.Bufs) > 0 {
		s.FreeBufs()
		s.c.kick.Fire()
	}
	s.Post(s.Resp(res, 0))
	s.Release()
	return res, false
}

// SendReadOverTCP streams the payload as chunked C2HData PDUs; the final
// chunk travels with the response capsule in one message, and the slot
// with its reserved buffers is released once those bytes are on the
// wire. The call ends the command's hold on the slot.
func (c *Conn) SendReadOverTCP(s *CmdSlot, res target.ExecResult) {
	if c.dead {
		// Connection torn down while the read executed: reclaim without
		// transmitting.
		s.Release()
		return
	}
	size, chunk := s.Size, c.t.cfg.ChunkSize
	if chunk <= 0 || chunk > size {
		chunk = size
	}
	n := transport.Chunks(size, chunk)
	if cap(s.chunks) < n {
		s.chunks = make([]pdu.Data, n)
	}
	s.chunks = s.chunks[:n]
	for i := range s.chunks {
		off := i * chunk
		l := min(chunk, size-off)
		d := &s.chunks[i]
		*d = pdu.Data{Dir: pdu.TypeC2HData, CID: s.Cmd.CID, Offset: uint32(off), Last: off+l >= size}
		if res.Data != nil {
			d.Payload = res.Data[off : off+l]
		} else {
			d.VirtualLen = l
		}
		if d.Last {
			s.Post(d, s.Resp(res, 0))
		} else {
			c.Post(d) // the last chunk's message holds the slot for all
		}
	}
	s.Release()
}
