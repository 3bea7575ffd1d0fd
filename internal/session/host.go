package session

import (
	"fmt"
	"math/rand"
	"sync/atomic"
	"time"

	"nvmeoaf/internal/model"
	"nvmeoaf/internal/netsim"
	"nvmeoaf/internal/nvme"
	"nvmeoaf/internal/pdu"
	"nvmeoaf/internal/qos"
	"nvmeoaf/internal/sim"
	"nvmeoaf/internal/telemetry"
	"nvmeoaf/internal/transport"
)

// HostWire is what a transport binding implements to put the host
// engine on its wire. The engine owns everything CID- and lifecycle-
// shaped; the wire owns handshake contents, payload staging, capsule
// transmission, and path-specific PDUs.
type HostWire interface {
	// BuildICReq builds the handshake request (initial connect and
	// mid-stream reconnect negotiate the same way).
	BuildICReq(reconnect bool) *pdu.ICReq
	// AdoptICResp adopts renegotiated parameters after a mid-stream
	// reconnect (the data path may have changed).
	AdoptICResp(resp *pdu.ICResp)
	// Admit applies transport-specific admission checks beyond the
	// engine's common ones; StatusSuccess admits the I/O.
	Admit(io *transport.IO) nvme.Status
	// StageSubmit charges payload staging for one doorbell's train of
	// admitted I/Os (linked through Pending.Next) on the ringing process:
	// fill cost, slot claims + copy-in, ...
	StageSubmit(p *sim.Proc, train *Pending)
	// MakeIOEntry builds the wire entry (SQE + optional in-capsule
	// payload) for a read/write command and records per-path submit
	// telemetry. Admin and flush entries are engine-built.
	MakeIOEntry(pend *Pending) pdu.BatchEntry
	// Transmit sends one command capsule.
	Transmit(p *sim.Proc, e *pdu.BatchEntry)
	// TransmitTrain sends a multi-entry capsule train.
	TransmitTrain(p *sim.Proc, b *pdu.CmdBatch)
	// PollBudget returns the busy-poll budget for this reactor
	// iteration (0 = interrupt mode).
	PollBudget() time.Duration
	// PreReactor runs at the top of every reactor iteration (the
	// adaptive fabric checks for region revocation here).
	PreReactor(p *sim.Proc)
	// HandlePDU handles transport-specific PDUs; returning false makes
	// the engine panic on the unexpected PDU.
	HandlePDU(p *sim.Proc, u pdu.PDU, transit time.Duration) bool
	// ReleaseAttempt reclaims per-attempt staging resources (Slot)
	// when a command is torn down for retry or failure.
	ReleaseAttempt(pend *Pending)
}

// completionInterceptor is an optional HostWire extension: the wire sees
// completion-path PDUs before the engine's default handling and returns
// true to consume one (adjacent-request merging splits a merged
// completion back to its member CIDs this way). The Fabrics Connect
// response is never offered.
type completionInterceptor interface {
	InterceptData(p *sim.Proc, d *pdu.Data, transit time.Duration) bool
	InterceptResp(p *sim.Proc, r *pdu.CapsuleResp, transit time.Duration) bool
}

// TrainSizer is an optional HostWire extension: the wire chooses the
// doorbell-train depth for each drain round from the current submit-queue
// occupancy (dynamic doorbell coalescing). Returning 0 defers to the
// configured BatchSize.
type TrainSizer interface {
	TrainSize(queued int) int
}

// ConnOptions is what a caller says about one host queue, whichever
// fabric carries it. It is declared here once: HostConfig and every
// binding's ClientConfig embed it, and a binding hands it to NewHost
// whole.
type ConnOptions struct {
	// NQN names the target subsystem; the Fabrics Connect command
	// identifies this host as DefaultHostNQN.
	NQN string
	// QueueDepth bounds outstanding commands (default 128).
	QueueDepth int
	// CommandTimeout is the per-command deadline. A command not completed
	// by then is torn down, retried (bounded), and finally failed with
	// StatusTransientTransport. Zero (the default) disables deadlines and
	// retries, keeping healthy-path behaviour bit-identical.
	CommandTimeout time.Duration
	// MaxRetries bounds retry attempts per command (default 3 when
	// CommandTimeout is set).
	MaxRetries int
	// RetryBackoff is the base of the exponential, jittered backoff
	// between attempts (default 100µs). The jitter stream derives from
	// the engine seed, so retry schedules replay per seed.
	RetryBackoff time.Duration
	// KeepAlive, when positive, submits a keep-alive admin command at this
	// interval so the target's KATO watchdog sees traffic on idle
	// connections — and so a dead target is detected even with no I/O
	// outstanding.
	KeepAlive time.Duration
	// Telemetry receives counters, histograms, and traces; nil
	// disables.
	Telemetry *telemetry.Sink
	// Tenant names the default tenant every I/O on this queue belongs to
	// (a per-IO Tenant overrides it). The name is carried to the target
	// once, inside the Fabrics Connect hostNQN field; empty leaves the
	// wire byte-identical to an untenanted build.
	Tenant string
	// QoS is the host-side token-bucket enforcement point shared by the
	// queues of one contention domain; nil disables host-side admission.
	// Inadmissible commands park in submission order and re-enter the
	// drain when their tenant's tokens refill (or ledger borrowing
	// covers them).
	QoS *qos.Shaper
}

// HostConfig configures the host-side session engine: the caller's
// ConnOptions plus what the binding owns.
type HostConfig struct {
	ConnOptions
	// Label prefixes daemon names, error strings, panics, and the retry
	// jitter stream ("oaf", "tcp", "rdma").
	Label string
	// Host holds client software costs.
	Host model.HostParams
	// BatchSize is the submission-coalescing depth (0/1 = classic
	// one-capsule-per-message wire).
	BatchSize int
	// InterruptWakeups charges the endpoint wakeup penalty when the
	// reactor parks and traffic arrives (interrupt-driven receive).
	// RDMA completion-queue polling leaves it off.
	InterruptWakeups bool
}

// Host is the transport-independent host queue core.
type Host struct {
	e       *sim.Engine
	ep      *netsim.Endpoint
	wire    HostWire
	cfg     HostConfig
	submitQ *sim.Queue[*Pending]
	kick    *sim.Signal
	icresp  *pdu.ICResp
	closing bool
	drained *sim.Signal
	rng     *rand.Rand
	tel     *telemetry.Sink
	icept   completionInterceptor
	sizer   TrainSizer

	// The command table (slots.go): one slot per CID, and the LIFO of CIDs
	// no command holds.
	slots    []slot
	freeCIDs []uint16

	// staged is the train SubmitInto has linked (through Pending.Next)
	// since the last doorbell; stagedTail is its last element.
	staged, stagedTail *Pending

	// Hot-path recycling: pending-op freelist, the connection's decoder
	// (what it returns is valid until the reactor's next message), plus
	// reactor-owned scratch structures for the batched submission path.
	// The engine is cooperative, so plain slices suffice; scratch encode
	// structures are only touched by the reactor (SendPDUs serializes
	// before yielding).
	freePends []*Pending
	dec       pdu.Decoder
	batch     pdu.CmdBatch
	capsule   pdu.CapsuleCmd
	entry     pdu.BatchEntry

	// Live-tunable knobs. These are the only engine state written from
	// outside the cooperative simulation (the tuning controller runs as
	// an engine daemon, but operators and the -race regression hammer
	// them from foreign goroutines), so they are atomics: the reactor
	// re-reads them every iteration and the new values take effect on
	// the next drain round — no reconnect, no restart.
	//
	// liveBatch is the submission-coalescing depth (overrides
	// cfg.BatchSize; <=1 = classic wire). livePollNs is the busy-poll
	// budget override in nanoseconds (<0 defers to the wire's own
	// policy). liveQD is a soft cap on outstanding commands, clamped to
	// [1, QueueDepth]; lowering it parks excess submissions in the
	// submit queue instead of the CID table.
	liveBatch  atomic.Int32
	livePollNs atomic.Int64
	liveQD     atomic.Int32

	// qosParked holds commands QoS admission refused, in submission
	// order; the drain consults it before the submit queue (skipping
	// still-throttled tenants so one dry bucket cannot head-of-line
	// block the rest). qosWake guards the single outstanding refill
	// wake timer.
	qosParked []*Pending
	qosWake   bool

	// The one deadline timer (watchDeadlines): timerArmed while it waits,
	// expiryDue from when it finds a command due until the reactor has
	// reaped; onDeadline is bound once so that arming allocates nothing.
	timerArmed bool
	expiryDue  bool
	onDeadline func()

	// backlog counts commands parked in retry backoff (neither queued nor
	// in flight); teardown waits for them.
	backlog int
	// consecTimeouts counts deadline expirations since the last
	// successful completion; crossing the threshold triggers reconnect.
	consecTimeouts int
	reconnecting   bool
	reconRetry     bool
	reconGen       int

	HostStats
}

// HostStats is a host queue's completion and recovery accounting. Every
// binding's client embeds the Host, so the fields and Stats promote on
// all of them.
type HostStats struct {
	// Completed counts finished commands.
	Completed int64
	// Retries counts re-driven attempts; Timeouts counts per-command
	// deadline expirations; Reconnects counts re-established
	// connections; LateMsgs counts stale PDUs (for already-reaped
	// commands) dropped.
	Retries    int64
	Timeouts   int64
	Reconnects int64
	LateMsgs   int64
}

// Stats returns the accounting as of now.
func (s *HostStats) Stats() HostStats { return *s }

// NewHost builds the engine core. The binding must call Handshake (on
// the connecting process) and then Start.
func NewHost(e *sim.Engine, ep *netsim.Endpoint, cfg HostConfig, wire HostWire) *Host {
	if cfg.QueueDepth <= 0 {
		cfg.QueueDepth = 128
	}
	h := &Host{
		e:       e,
		ep:      ep,
		wire:    wire,
		cfg:     cfg,
		submitQ: sim.NewQueue[*Pending](e, 0),
		kick:    sim.NewSignal(e),
		drained: sim.NewSignal(e),
		rng:     e.Rand(cfg.Label + "-client-retry"),
		tel:     cfg.Telemetry,
		slots:   make([]slot, cfg.QueueDepth),
	}
	if h.tel == nil {
		h.tel = telemetry.Disabled
	}
	for cid := cfg.QueueDepth - 1; cid >= 0; cid-- {
		h.freeCIDs = append(h.freeCIDs, uint16(cid))
	}
	h.onDeadline = h.watchDeadlines
	h.icept, _ = wire.(completionInterceptor)
	h.sizer, _ = wire.(TrainSizer)
	h.liveBatch.Store(int32(cfg.BatchSize))
	h.livePollNs.Store(-1)
	h.liveQD.Store(int32(cfg.QueueDepth))
	return h
}

// SetBatchSize adjusts the submission-coalescing depth live: the next
// drain round packs up to n commands per capsule train (n <= 1 restores
// the classic one-capsule-per-message wire). Safe to call from outside
// the engine.
func (h *Host) SetBatchSize(n int) {
	if n < 0 {
		n = 0
	}
	h.liveBatch.Store(int32(n))
}

// LiveBatchSize returns the coalescing depth currently in effect.
func (h *Host) LiveBatchSize() int { return int(h.liveBatch.Load()) }

// SetPollBudget overrides the receive busy-poll budget live (0 = pure
// interrupt mode). A negative budget removes the override, deferring to
// the wire's own policy (static config or the adaptive §4.5 policy).
func (h *Host) SetPollBudget(d time.Duration) { h.livePollNs.Store(int64(d)) }

// LivePollBudget returns the busy-poll override, or a negative duration
// when the wire's own policy is in effect.
func (h *Host) LivePollBudget() time.Duration { return time.Duration(h.livePollNs.Load()) }

// SetQDTarget caps outstanding commands live, clamped to
// [1, QueueDepth]. Commands beyond the target queue host-side until
// completions free room, trading throughput for queueing delay exactly
// like shrinking the hardware queue would — without reconnecting.
func (h *Host) SetQDTarget(n int) {
	if n < 1 {
		n = 1
	}
	if n > h.cfg.QueueDepth {
		n = h.cfg.QueueDepth
	}
	h.liveQD.Store(int32(n))
}

// QDTarget returns the live outstanding-command cap.
func (h *Host) QDTarget() int { return int(h.liveQD.Load()) }

// QueueDepth returns the connection's configured (hard) queue depth.
func (h *Host) QueueDepth() int { return h.cfg.QueueDepth }

// canStart reports whether another command may enter the slot table: the
// live QD target never exceeds the hard depth.
func (h *Host) canStart() bool {
	return h.live() < int(h.liveQD.Load())
}

// pollBudget resolves the receive busy-poll budget for this reactor
// iteration: the live override when set, else the wire's policy.
func (h *Host) pollBudget() time.Duration {
	if v := h.livePollNs.Load(); v >= 0 {
		return time.Duration(v)
	}
	return h.wire.PollBudget()
}

// Handshake performs the ICReq/ICResp exchange and the Fabrics Connect
// command on the calling process.
func (h *Host) Handshake(p *sim.Proc) error {
	transport.SendPDUs(p, h.ep, h.wire.BuildICReq(false))
	msg := h.ep.Recv(p)
	pdus, err := transport.DecodeAll(msg, &h.dec)
	if err != nil {
		return fmt.Errorf("%s: handshake: %w", h.cfg.Label, err)
	}
	icresp, ok := pdus[0].(*pdu.ICResp)
	if !ok {
		return fmt.Errorf("%s: handshake: unexpected %v", h.cfg.Label, pdus[0].Type())
	}
	h.icresp = icresp
	return h.fabricsConnect(p)
}

// fabricsConnect performs the NVMe-oF Connect command over the control
// path: the target validates the subsystem NQN before admitting I/O.
func (h *Host) fabricsConnect(p *sim.Proc) error {
	cmd := nvme.Command{Opcode: nvme.FabricsCommandType, CID: ConnectCID, CDW10: nvme.FctypeConnect}
	transport.SendPDUs(p, h.ep, &pdu.CapsuleCmd{Cmd: cmd, Data: nvme.EncodeConnectData(h.connectHostNQN(), h.cfg.NQN)})
	msg := h.ep.Recv(p)
	pdus, err := transport.DecodeAll(msg, &h.dec)
	if err != nil {
		return fmt.Errorf("%s: connect: %w", h.cfg.Label, err)
	}
	resp, ok := pdus[0].(*pdu.CapsuleResp)
	if !ok {
		return fmt.Errorf("%s: connect: unexpected %v", h.cfg.Label, pdus[0].Type())
	}
	if resp.Rsp.Status.IsError() {
		return fmt.Errorf("%s: connect rejected: %w", h.cfg.Label, resp.Rsp.Status.Error())
	}
	return nil
}

// connectHostNQN is the hostNQN carried in Connect data: the bare host
// NQN with the queue's tenant folded in (unchanged when untenanted, so
// the wire stays byte-identical).
func (h *Host) connectHostNQN() string {
	return TenantHostNQN(DefaultHostNQN, h.cfg.Tenant)
}

// tenantOf resolves the tenant an I/O belongs to: its own stamp, else
// the queue default.
func (h *Host) tenantOf(io *transport.IO) string {
	if io.Tenant != "" {
		return io.Tenant
	}
	return h.cfg.Tenant
}

// tview returns the telemetry view for an I/O's tenant (nil when
// untenanted or the sink is disabled; a nil view records nothing).
func (h *Host) tview(io *transport.IO) *telemetry.TenantView {
	return h.tel.Tenant(h.tenantOf(io))
}

// qosAdmit charges an I/O against its tenant's token bucket. Admin,
// flush, exempt, and untenanted traffic always passes, as does
// everything when no shaper is configured.
func (h *Host) qosAdmit(pend *Pending, nowNs int64) bool {
	io := pend.IO
	if h.cfg.QoS == nil || io.QoSExempt || io.Admin != 0 || io.Flush {
		return true
	}
	name := h.tenantOf(io)
	if name == "" {
		return true
	}
	b := h.cfg.QoS.Bucket(name, nowNs)
	if !b.Limited() {
		return true
	}
	return b.TryTake(nowNs, int64(io.Size))
}

// popAdmitted yields the next command the QoS gate admits: parked
// commands first (in park order, skipping tenants whose buckets are
// still dry so one throttled tenant cannot head-of-line block others),
// then the submit queue, parking whatever the gate refuses.
func (h *Host) popAdmitted(p *sim.Proc) (*Pending, bool) {
	now := int64(p.Now())
	for i, pend := range h.qosParked {
		if !h.qosAdmit(pend, now) {
			continue
		}
		h.qosParked = append(h.qosParked[:i], h.qosParked[i+1:]...)
		if tv := h.tview(pend.IO); tv != nil {
			tv.ObserveDuration(telemetry.THistTokenWait, p.Now().Sub(pend.qosParkAt))
		}
		pend.qosParkAt = 0
		return pend, true
	}
	for {
		pend, ok := h.submitQ.TryGet()
		if !ok {
			return nil, false
		}
		if h.qosAdmit(pend, now) {
			return pend, true
		}
		pend.qosParkAt = p.Now()
		h.tview(pend.IO).Inc(telemetry.TCtrTokenWaits)
		h.qosParked = append(h.qosParked, pend)
	}
}

// armQoSWake schedules one reactor wake-up for the oldest parked
// command's estimated refill time, so token waits end without any
// other traffic. The qosWake flag bounds it to one outstanding timer.
func (h *Host) armQoSWake(p *sim.Proc) {
	if len(h.qosParked) == 0 || h.qosWake || h.cfg.QoS == nil {
		return
	}
	pend := h.qosParked[0]
	now := int64(p.Now())
	wait := h.cfg.QoS.Bucket(h.tenantOf(pend.IO), now).WaitNs(now, int64(pend.IO.Size))
	h.qosWake = true
	h.e.After(time.Duration(wait), func() {
		h.qosWake = false
		h.kick.Fire()
	})
}

// Start launches the reactor (and, when configured, the keep-alive
// loop) as engine daemons.
func (h *Host) Start() {
	h.e.GoDaemon(h.cfg.Label+"-client-reactor", h.reactor)
	if h.cfg.KeepAlive > 0 {
		h.e.GoDaemon(h.cfg.Label+"-client-keepalive", h.keepAliveLoop)
	}
}

// ICResp returns the negotiated connection parameters.
func (h *Host) ICResp() *pdu.ICResp { return h.icresp }

// Telemetry returns the active sink (never nil), so wire bindings emit
// through the same sink the engine uses.
func (h *Host) Telemetry() *telemetry.Sink { return h.tel }

// Engine returns the simulation engine (for binding-owned futures and
// workers).
func (h *Host) Engine() *sim.Engine { return h.e }

// Health implements transport.HealthReporter: the queue is dead once
// orderly shutdown has begun, degraded while a reconnect is in progress
// or command deadlines are expiring back to back (the connection is
// suspect but still retrying), and healthy otherwise.
func (h *Host) Health() transport.Health {
	switch {
	case h.closing:
		return transport.HealthDead
	case h.reconnecting || h.consecTimeouts > 0:
		return transport.HealthDegraded
	}
	return transport.HealthHealthy
}

// Kick wakes the reactor.
func (h *Host) Kick() { h.kick.Fire() }

// NoteLate counts a stale PDU for an already-reaped command.
func (h *Host) NoteLate() {
	h.LateMsgs++
	h.tel.Inc(telemetry.CtrLateMsgs)
}

// admit validates one I/O against the engine's common limits and the
// wire's own, resolving the future with a typed error when it cannot be
// queued. It returns false when the command must not proceed.
func (h *Host) admit(io *transport.IO, fut *sim.Future[*transport.Result]) bool {
	if h.closing {
		io.Complete(fut, transport.Result{Status: nvme.StatusAbortRequested})
		return false
	}
	if io.Admin == 0 && !io.Flush && (io.Size <= 0 || io.Size%transport.BlockSize != 0 || io.Offset%transport.BlockSize != 0) {
		io.Complete(fut, transport.Result{Status: nvme.StatusInvalidField})
		return false
	}
	if st := h.wire.Admit(io); st != nvme.StatusSuccess {
		io.Complete(fut, transport.Result{Status: st})
		return false
	}
	return true
}

// SubmitInto implements transport.Queue: the I/O is admitted and its
// pending op linked onto the staged train. It allocates nothing in the
// steady state and never yields, so a process that stages and rings back
// to back (transport.Submit) publishes exactly its own commands.
func (h *Host) SubmitInto(p *sim.Proc, io *transport.IO, fut *sim.Future[*transport.Result]) {
	if !h.admit(io, fut) {
		return
	}
	pend := h.takePending(io, fut)
	if h.stagedTail == nil {
		h.staged = pend
	} else {
		h.stagedTail.Next = pend
	}
	h.stagedTail = pend
}

// RingDoorbell implements transport.Queue. The staged train is detached
// before the first sleep: several processes share one host (a cluster's
// deferred worker and its driver share member queues), and whatever one
// of them stages while another sleeps here belongs to the next doorbell.
// The ringing process then pays the wire's payload staging (shared-memory
// flow control pushes back here when all slots are busy) and one submit
// CPU for the train, and only after that do the commands get their
// submission stamp and become visible to the reactor: a command whose
// submit CPU has not been paid is not on the wire, whichever process the
// reactor happens to be awake for.
func (h *Host) RingDoorbell(p *sim.Proc) {
	train := h.staged
	if train == nil {
		return
	}
	h.staged, h.stagedTail = nil, nil
	h.wire.StageSubmit(p, train)
	p.Sleep(h.cfg.Host.SubmitCPU)
	now := p.Now()
	for pend := train; pend != nil; {
		next := pend.Next
		pend.Next = nil
		pend.SubmitAt = now
		h.submitQ.TryPut(pend)
		pend = next
	}
	h.kick.Fire()
}

// ChargeFill charges payload generation for every write of a staged train
// on p: the whole StageSubmit of a wire with no staging of its own.
func (h *Host) ChargeFill(p *sim.Proc, train *Pending) {
	for pend := train; pend != nil; pend = pend.Next {
		if pend.IO.Write {
			h.FillPayload(p, pend.IO)
		}
	}
}

// FillPayload charges generating io's payload on p, unless the caller
// accounts for that itself (NoFill).
func (h *Host) FillPayload(p *sim.Proc, io *transport.IO) {
	if !io.NoFill {
		p.Sleep(time.Duration(float64(io.Size) * h.cfg.Host.FillPerByteNanos))
	}
}

// Close initiates orderly shutdown.
func (h *Host) Close() {
	if h.closing {
		return
	}
	h.closing = true
	h.kick.Fire()
}

// WaitClosed blocks until the reactor has exited.
func (h *Host) WaitClosed(p *sim.Proc) { h.drained.Wait(p) }

// reactor is the connection's single-core event loop.
func (h *Host) reactor(p *sim.Proc) {
	h.ep.OnDeliver = h.kick.Fire
	defer h.drained.Fire()
	for {
		h.wire.PreReactor(p)
		worked := false
		if h.reconRetry {
			h.reconRetry = false
			if h.reconnecting && !h.closing {
				h.sendICReq(p)
				worked = true
			}
		}
		for h.canStart() && !h.reconnecting {
			// Depth is re-read per train so a TrainSizer wire can grow or
			// shrink the doorbell train as occupancy changes mid-drain.
			if depth := h.trainDepth(); depth > 1 {
				if !h.startTrain(p, depth) {
					break
				}
			} else {
				pend, ok := h.popAdmitted(p)
				if !ok {
					break
				}
				h.start(p, pend)
			}
			worked = true
		}
		if h.closing && h.reconnecting {
			// Tearing down with no usable connection: fail queued
			// commands with a typed, retryable-at-application error
			// rather than parking them forever.
			for {
				pend, ok := h.submitQ.TryGet()
				if !ok {
					break
				}
				pend.IO.Complete(pend.Fut, transport.Result{
					Status:  nvme.StatusTransientTransport,
					Latency: p.Now().Sub(pend.SubmitAt),
				})
				worked = true
			}
			for _, pend := range h.qosParked {
				pend.IO.Complete(pend.Fut, transport.Result{
					Status:  nvme.StatusTransientTransport,
					Latency: p.Now().Sub(pend.SubmitAt),
				})
				worked = true
			}
			h.qosParked = h.qosParked[:0]
		}
		for {
			msg := h.ep.TryRecv(p)
			if msg == nil {
				break
			}
			h.handle(p, msg)
			worked = true
		}
		if h.reapExpired(p) {
			worked = true
		}
		if worked {
			continue
		}
		if h.closing && h.live() == 0 && h.submitQ.Len() == 0 && h.backlog == 0 && len(h.qosParked) == 0 {
			transport.SendPDUs(p, h.ep, &pdu.Term{Dir: pdu.TypeH2CTermReq})
			return
		}
		// Busy-poll the socket while commands are in flight: spin up to
		// the budget inside the receive path (SO_BUSY_POLL semantics).
		if budget := h.pollBudget(); budget > 0 && h.live() > 0 {
			if msg := h.ep.RecvPoll(p, budget); msg != nil {
				h.handle(p, msg)
				continue
			}
			// Spin the budget, then fall through to the blocking wait.
			p.Sleep(PollMissCPU)
		}
		h.kick.Reset()
		h.armQoSWake(p)
		if h.closing && h.live() == 0 && h.submitQ.Len() == 0 && h.backlog == 0 && len(h.qosParked) == 0 {
			continue
		}
		if h.ep.Pending() > 0 || (h.canStart() && !h.reconnecting && h.submitQ.Len() > 0) {
			continue
		}
		h.kick.Wait(p)
		if h.cfg.InterruptWakeups && h.ep.Pending() > 0 {
			h.ep.ChargeWakeup(p)
		}
	}
}

// maxRetries returns the per-command retry bound.
func (h *Host) maxRetries() int {
	if h.cfg.MaxRetries > 0 {
		return h.cfg.MaxRetries
	}
	return 3
}

// retryBase returns the backoff base.
func (h *Host) retryBase() time.Duration {
	if h.cfg.RetryBackoff > 0 {
		return h.cfg.RetryBackoff
	}
	return 100 * time.Microsecond
}

// backoff returns the delay before the given attempt: exponential in the
// attempt number, capped, plus deterministic seed-derived jitter so
// retrying queues don't synchronize into retry storms.
func (h *Host) backoff(attempt int) time.Duration {
	base := h.retryBase()
	d := base << uint(attempt-1)
	if max := 64 * base; d > max {
		d = max
	}
	return d + time.Duration(h.rng.Int63n(int64(base)))
}

// reapExpired tears down deadline-hit commands in CID order: the CID frees
// (late responses for it are dropped as stale), staged payload reclaims,
// and the command either re-drives after backoff or fails with a typed
// transport error. It runs only after watchDeadlines found a command due.
func (h *Host) reapExpired(p *sim.Proc) bool {
	if !h.expiryDue {
		return false
	}
	h.expiryDue = false
	worked := false
	for cid := range h.slots {
		if s := &h.slots[cid]; s.pend == nil || s.deadline > p.Now() {
			continue
		}
		pend := h.retire(uint16(cid))
		h.Timeouts++
		h.tel.Inc(telemetry.CtrTimeouts)
		h.tel.Trace(int64(p.Now()), telemetry.EvTimeout, pend.CID, "", "deadline")
		h.consecTimeouts++
		h.requeueOrFail(p, pend)
		worked = true
	}
	h.watchDeadlines()
	if h.consecTimeouts >= 2 && !h.reconnecting && !h.closing {
		// Successive deadline hits mean the connection, not a command,
		// is sick: re-run the handshake (the target may have crashed and
		// restarted, or a KATO teardown dropped our connection state).
		h.startReconnect(p)
		worked = true
	}
	return worked
}

// requeueOrFail re-drives a torn-down command after a jittered backoff,
// or fails it with StatusTransientTransport once attempts are exhausted
// (or the client is closing). The caller must have freed the CID.
func (h *Host) requeueOrFail(p *sim.Proc, pend *Pending) {
	pend.Received = 0
	pend.DataLost = false
	pend.WNext, pend.WEnd = 0, 0
	h.wire.ReleaseAttempt(pend)
	if h.closing || pend.Attempts >= h.maxRetries() {
		pend.IO.Complete(pend.Fut, transport.Result{
			Status:  nvme.StatusTransientTransport,
			Latency: p.Now().Sub(pend.SubmitAt),
		})
		h.kick.Fire()
		return
	}
	pend.Attempts++
	h.Retries++
	h.tel.Inc(telemetry.CtrRetries)
	h.tel.Trace(int64(p.Now()), telemetry.EvRetry, pend.CID, "tcp", "backoff")
	h.backlog++
	h.e.After(h.backoff(pend.Attempts), func() {
		h.backlog--
		if h.closing {
			pend.IO.Complete(pend.Fut, transport.Result{
				Status:  nvme.StatusTransientTransport,
				Latency: h.e.Now().Sub(pend.SubmitAt),
			})
			h.kick.Fire()
			return
		}
		h.submitQ.TryPut(pend)
		h.kick.Fire()
	})
}

// keepAliveLoop enqueues a keep-alive admin command every interval. The
// commands ride the normal submission path, so they are subject to
// deadlines and drive crash detection even when the workload is idle.
func (h *Host) keepAliveLoop(p *sim.Proc) {
	for !h.closing {
		p.Sleep(h.cfg.KeepAlive)
		if h.closing {
			return
		}
		if h.reconnecting || h.live() == len(h.slots) {
			continue
		}
		pend := &Pending{Pending: transport.Pending{
			IO:  &transport.IO{Admin: nvme.AdminKeepAlive},
			Fut: sim.NewFuture[*transport.Result](h.e),
		}}
		pend.SubmitAt = p.Now()
		h.submitQ.TryPut(pend)
		h.kick.Fire()
	}
}

// startReconnect re-runs the handshake on the live endpoint. Until it
// completes, new submissions queue; in-flight commands keep timing out
// into the retry path and re-drive afterwards.
func (h *Host) startReconnect(p *sim.Proc) {
	h.reconnecting = true
	h.sendICReq(p)
}

// sendICReq (re)sends the handshake request and arms a retry timer in
// case it, or the response, is lost.
func (h *Host) sendICReq(p *sim.Proc) {
	h.reconGen++
	gen := h.reconGen
	transport.SendPDUs(p, h.ep, h.wire.BuildICReq(true))
	h.e.After(h.reconnectTimeout(), func() {
		if h.reconnecting && h.reconGen == gen && !h.closing {
			h.reconRetry = true
			h.kick.Fire()
		}
	})
}

func (h *Host) reconnectTimeout() time.Duration {
	if h.cfg.CommandTimeout > 0 {
		return h.cfg.CommandTimeout
	}
	return time.Millisecond
}

// batchDepth returns the submission-coalescing depth in effect (1 =
// classic one-capsule-per-message behaviour). It reads the live knob,
// so a SetBatchSize call changes the very next drain round.
func (h *Host) batchDepth() int {
	if b := int(h.liveBatch.Load()); b > 1 {
		return b
	}
	return 1
}

// trainDepth resolves the depth for the next doorbell train: a TrainSizer
// wire may override per round from queue occupancy; 0 defers to the
// configured BatchSize.
func (h *Host) trainDepth() int {
	if h.sizer != nil {
		if d := h.sizer.TrainSize(h.submitQ.Len()); d > 0 {
			return d
		}
	}
	return h.batchDepth()
}

// prepareStart allocates the CID (and with it the deadline) and builds the
// wire entry for one command. It is the shared front half of start and
// startTrain; both have checked canStart.
func (h *Host) prepareStart(pend *Pending) pdu.BatchEntry {
	h.alloc(pend)
	io := pend.IO
	if io.Admin != 0 {
		return pdu.BatchEntry{Cmd: nvme.Command{Opcode: io.Admin, CID: pend.CID, NSID: io.NSID, CDW10: io.CDW10, Flags: transport.AdminFlag}}
	}
	if io.Flush {
		// Flush carries no payload and no LBA range: it rides the control
		// channel on either data path.
		return pdu.BatchEntry{Cmd: nvme.NewFlush(pend.CID, io.Nsid())}
	}
	return h.wire.MakeIOEntry(pend)
}

// SendCapsule transmits one entry as a classic command capsule using the
// reactor-owned scratch (SendPDUs serializes before yielding, so reuse
// across capsules is safe under the cooperative engine).
func (h *Host) SendCapsule(p *sim.Proc, e *pdu.BatchEntry) {
	h.capsule = pdu.CapsuleCmd{Cmd: e.Cmd, Data: e.Data, VirtualLen: e.VirtualLen}
	transport.SendPDUs(p, h.ep, &h.capsule)
}

// start transmits one command capsule (the classic unbatched path). The
// entry rides the reactor-owned scratch: passing a stack local through
// the interface call would heap-allocate it per command, and every wire
// consumes the entry before yielding back.
func (h *Host) start(p *sim.Proc, pend *Pending) {
	h.entry = h.prepareStart(pend)
	h.wire.Transmit(p, &h.entry)
	h.entry = pdu.BatchEntry{}
}

// startTrain drains up to depth admissible commands from the submit
// queue and transmits them as one capsule train: a single network
// message, so the per-message CPU, wakeup penalty, and all but one
// common header are paid once for the whole batch. Returns false when
// the queue had nothing to send.
func (h *Host) startTrain(p *sim.Proc, depth int) bool {
	entries := h.batch.Entries[:0]
	for len(entries) < depth && h.canStart() {
		pend, ok := h.popAdmitted(p)
		if !ok {
			break
		}
		entries = append(entries, h.prepareStart(pend))
	}
	h.batch.Entries = entries
	if len(entries) == 0 {
		return false
	}
	h.tel.Observe(telemetry.HistBatchSize, int64(len(entries)))
	if len(entries) == 1 {
		// A train of one degenerates to the classic capsule: no batch
		// framing overhead, and single-command traffic stays on the
		// established wire format.
		h.wire.Transmit(p, &entries[0])
		return true
	}
	h.wire.TransmitTrain(p, &h.batch)
	return true
}

// handle processes one received network message.
func (h *Host) handle(p *sim.Proc, msg *netsim.Message) {
	transit := p.Now().Sub(msg.SentAt)
	pdus, err := transport.DecodeAll(msg, &h.dec)
	if err != nil {
		panic(fmt.Sprintf("%s client: bad message: %v", h.cfg.Label, err))
	}
	h.tel.Add(telemetry.CtrPDUsRx, int64(len(pdus)))
	reaped := 0
	for _, u := range pdus {
		switch v := u.(type) {
		case *pdu.Data:
			if h.icept == nil || !h.icept.InterceptData(p, v, transit) {
				h.onData(p, v, transit)
			}
		case *pdu.CapsuleResp:
			if h.icept == nil || v.Rsp.CID == ConnectCID || !h.icept.InterceptResp(p, v, transit) {
				h.onResp(p, v, transit)
			}
			reaped++
		case *pdu.ICResp:
			h.onReconnectICResp(p, v)
		case *pdu.Term:
			// Target-initiated termination: nothing outstanding to do.
		default:
			if !h.wire.HandlePDU(p, u, transit) {
				panic(fmt.Sprintf("%s client: unexpected PDU %v", h.cfg.Label, u.Type()))
			}
		}
		// A message's transit is attributed once even when several PDUs
		// were coalesced into it.
		transit = 0
	}
	msg.Release()
	if reaped > 0 {
		// Completions harvested per wakeup: the completion-reap analogue
		// of HistBatchSize (the target coalesces responses when batching).
		h.tel.Observe(telemetry.HistReapDepth, int64(reaped))
	}
}

// onReconnectICResp completes the first half of a mid-stream reconnect:
// adopt the renegotiated parameters (the data path may have changed) and
// send the Fabrics Connect command.
func (h *Host) onReconnectICResp(p *sim.Proc, resp *pdu.ICResp) {
	if !h.reconnecting {
		return
	}
	h.icresp = resp
	h.wire.AdoptICResp(resp)
	cmd := nvme.Command{Opcode: nvme.FabricsCommandType, CID: ConnectCID, CDW10: nvme.FctypeConnect}
	transport.SendPDUs(p, h.ep, &pdu.CapsuleCmd{Cmd: cmd, Data: nvme.EncodeConnectData(h.connectHostNQN(), h.cfg.NQN)})
}

// onData receives one read payload chunk over the plain wire.
func (h *Host) onData(p *sim.Proc, d *pdu.Data, transit time.Duration) {
	pend, ok := h.LookupPending(d.CID)
	if !ok {
		h.NoteLate() // late data for a command already reaped
		return
	}
	n := len(d.Payload)
	if n == 0 {
		n = d.VirtualLen
	}
	dst, ok := pend.Window(uint64(d.Offset))
	if !ok {
		// Not this command's payload: recovery re-drives it.
		h.NoteLate()
		pend.DataLost = true
		return
	}
	copy(dst, d.Payload)
	pend.Received += n
	pend.Comm += transit
}

// onResp completes a command — or, when the target reported a retryable
// typed error (shed under pressure, transfer failed mid-stream) or the
// payload went missing, re-drives it.
func (h *Host) onResp(p *sim.Proc, r *pdu.CapsuleResp, transit time.Duration) {
	if r.Rsp.CID == ConnectCID {
		h.onConnectResp(r)
		return
	}
	// A response that races its deadline to the reactor wins.
	pend := h.retire(r.Rsp.CID)
	if pend == nil {
		// A response for a command the deadline already reaped: its CID
		// was freed (or reused by a later command that also completed).
		h.NoteLate()
		return
	}
	pend.Comm += transit
	p.Sleep(h.cfg.Host.CompleteCPU)
	h.consecTimeouts = 0
	if h.cfg.CommandTimeout > 0 && !h.closing && (pend.DataLost || r.Rsp.Status.Retryable()) {
		h.requeueOrFail(p, pend)
		h.kick.Fire()
		return
	}
	var data []byte
	if !pend.IO.Write && pend.IO.Data != nil {
		n := pend.Received
		if n > len(pend.IO.Data) {
			n = len(pend.IO.Data)
		}
		data = pend.IO.Data[:n]
	}
	pend.Finish(p.Now(), r, data)
	h.Completed++
	h.tel.Inc(telemetry.CtrCompletions)
	if pend.IO.Admin == 0 {
		lat := p.Now().Sub(pend.SubmitAt)
		if pend.IO.Write {
			h.tel.ObserveDuration(telemetry.HistWriteLatency, lat)
		} else {
			h.tel.ObserveDuration(telemetry.HistReadLatency, lat)
		}
		if tv := h.tview(pend.IO); tv != nil {
			tv.Inc(telemetry.TCtrCompletions)
			tv.Add(telemetry.TCtrBytes, int64(pend.IO.Size))
			tv.ObserveDuration(telemetry.THistLatency, lat)
		}
	}
	h.recyclePending(pend)
	h.kick.Fire()
}

// DeliverResp feeds a wire-synthesized completion through the engine's
// normal completion path (CID free, retry logic, latency histograms,
// recycling). A merging wire uses it to fan a merged response back out
// to member commands.
func (h *Host) DeliverResp(p *sim.Proc, r *pdu.CapsuleResp, transit time.Duration) {
	h.onResp(p, r, transit)
}

// onConnectResp completes the second half of a mid-stream reconnect.
func (h *Host) onConnectResp(r *pdu.CapsuleResp) {
	if !h.reconnecting || r.Rsp.Status.IsError() {
		return // the handshake retry timer will try again
	}
	h.reconnecting = false
	h.consecTimeouts = 0
	h.Reconnects++
	h.tel.Inc(telemetry.CtrReconnects)
	h.tel.Trace(int64(h.e.Now()), telemetry.EvReconnect, 0, "", "handshake")
	h.kick.Fire()
}
