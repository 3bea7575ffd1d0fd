// Package netsim models the network paths between VMs: shared NIC wires,
// per-message host stack costs, propagation delay, and the receive-side
// interrupt/busy-poll behaviour that the paper's TCP-channel optimization
// tunes (§4.5).
//
// A message is real encoded bytes (a PDU). The time it takes to move is
// modeled in three stages: sender stack CPU, serialization through the
// sender's TX wire and the receiver's RX wire (both shared resources, so
// four streams on one 10 GbE NIC genuinely contend), and receiver stack
// CPU. Receivers in interrupt mode additionally pay a wakeup penalty when
// a message arrives while they are blocked.
package netsim

import (
	"math/rand"
	"time"

	"nvmeoaf/internal/model"
	"nvmeoaf/internal/sim"
)

// Wire is a serialization resource: one direction of a NIC port. Multiple
// links can share a wire, in which case their messages contend for it in
// submission order.
type Wire struct {
	e           *sim.Engine
	bytesPerSec float64
	free        sim.Time
	// backlogCap bounds how far ahead of the clock the wire may be
	// booked before senders block (models TCP send-buffer backpressure:
	// kernel buffers autotune to several bandwidth-delay products under
	// deep-queue-depth NVMe/TCP load).
	backlogCap time.Duration

	// TxBytes counts all bytes serialized through this wire.
	TxBytes int64
}

// NewWire creates a wire with the given bandwidth in bytes per second.
func NewWire(e *sim.Engine, bytesPerSec float64) *Wire {
	return &Wire{e: e, bytesPerSec: bytesPerSec, backlogCap: 16 * time.Millisecond}
}

// serialize books size bytes onto the wire starting no earlier than t and
// returns the completion time.
func (w *Wire) serialize(t sim.Time, size int) sim.Time {
	start := t
	if w.free > start {
		start = w.free
	}
	dur := time.Duration(float64(size) / w.bytesPerSec * 1e9)
	w.free = start.Add(dur)
	w.TxBytes += int64(size)
	return w.free
}

// backlog returns how far the wire is booked past the current clock.
func (w *Wire) backlog() time.Duration {
	d := w.free.Sub(w.e.Now())
	if d < 0 {
		return 0
	}
	return d
}

// Message is one PDU in flight. Data holds the real encoded bytes; Wire is
// the size charged on the network (defaults to len(Data) when zero).
type Message struct {
	Data   []byte
	Wire   int
	SentAt sim.Time
	// owner is the endpoint whose NewMessage produced this message, nil
	// for a message built as a literal.
	owner *Endpoint
}

// NewMessage returns an empty message to fill and Send on this endpoint,
// reusing — struct and Data capacity — one the receiver has Released. The
// pool therefore holds as many messages as this sender ever had in flight.
func (ep *Endpoint) NewMessage() *Message {
	n := len(ep.spare)
	if n == 0 {
		return &Message{owner: ep}
	}
	m := ep.spare[n-1]
	ep.spare[n-1] = nil
	ep.spare = ep.spare[:n-1]
	return m
}

// Release hands a received message back to its sender for reuse. The caller
// must hold no reference to the message or to its Data afterwards. Messages
// that did not come from NewMessage are left to the collector.
func (m *Message) Release() {
	ep := m.owner
	if ep == nil {
		return
	}
	if ep.poison {
		for i := range m.Data {
			m.Data[i] = 0xDB
		}
	}
	m.Data, m.Wire = m.Data[:0], 0
	ep.spare = append(ep.spare, m)
}

// SetPoison makes Release overwrite the bytes of this endpoint's messages
// with 0xDB (as mempool's poison-on-free does), so a receiver that still
// reads a released message's Data sees corruption instead of stale bytes.
func (ep *Endpoint) SetPoison(on bool) { ep.poison = on }

// wireSize returns the byte count charged to the network.
func (m *Message) wireSize() int {
	if m.Wire > 0 {
		return m.Wire
	}
	return len(m.Data)
}

// Endpoint is one side of a link: it sends onto its TX wire and receives
// from its peer through a FIFO delivery queue.
type Endpoint struct {
	e      *sim.Engine
	params model.LinkParams
	tx     *Wire // our NIC's transmit wire
	rx     *Wire // our NIC's receive wire
	peer   *Endpoint
	inbox  *sim.Queue[*Message]
	// inflight holds messages booked onto this endpoint's RX wire and not
	// yet delivered. A wire completes in booking order, so each deliver
	// event takes the head; deliverFn is ep.deliver, bound once.
	inflight  *sim.Queue[*Message]
	deliverFn func()
	spare     []*Message // released messages, see NewMessage
	poison    bool       // see SetPoison

	// lossProb drops a transmitted segment with this probability; TCP
	// recovers it after rto. Zero (the default) disables loss, keeping
	// the paper's figures unaffected; tests use it to study congestion
	// tails.
	lossProb float64
	rto      time.Duration
	lossRng  *rand.Rand
	tracer   *Tracer
	// down simulates a network partition: transmissions are dropped
	// without delivery (and without RTO recovery — the path is gone).
	down bool
	// extraLatency is injected path latency (a congestion or reroute
	// spike) added to propagation on every transmission.
	extraLatency time.Duration
	// Retransmits counts recovered losses.
	Retransmits int64
	// Drops counts messages lost to a partition.
	Drops int64

	// OnDeliver, when set, runs in engine context each time a message is
	// delivered into this endpoint's inbox. Reactors use it to wake a
	// unified event loop that also serves submission queues.
	OnDeliver func()

	// Counters.
	MsgsSent, MsgsRecv   int64
	BytesSent, BytesRecv int64
	Wakeups              int64 // interrupt-mode wakeups (penalty paid)
	PollHits, PollMisses int64 // busy-poll outcomes
}

// Link is a full-duplex path between two endpoints.
type Link struct {
	A, B *Endpoint
}

// NIC groups the two wires of one physical port.
type NIC struct {
	TX, RX *Wire
}

// NewNIC creates a NIC with symmetric bandwidth.
func NewNIC(e *sim.Engine, bytesPerSec float64) *NIC {
	return &NIC{TX: NewWire(e, bytesPerSec), RX: NewWire(e, bytesPerSec)}
}

// SetLoss enables random segment loss on this endpoint's transmissions,
// recovered by a retransmission timeout. Modeling only: a lost message is
// delivered after rto plus a fresh wire pass, as TCP's fast
// retransmit/RTO would.
func (ep *Endpoint) SetLoss(prob float64, rto time.Duration) {
	ep.lossProb = prob
	ep.rto = rto
	if ep.lossRng == nil {
		ep.lossRng = ep.e.Rand("netsim-loss")
	}
}

// Loss returns the current loss probability (zero = disabled).
func (ep *Endpoint) Loss() float64 { return ep.lossProb }

// SetDown partitions this endpoint's transmit path: messages are dropped
// without delivery until the partition heals. Unlike SetLoss there is no
// RTO recovery — a partition has no surviving path for the retransmit.
func (ep *Endpoint) SetDown(down bool) { ep.down = down }

// Down reports whether the endpoint's transmit path is partitioned.
func (ep *Endpoint) Down() bool { return ep.down }

// SetExtraLatency injects additional path latency (a congestion or
// reroute spike) into every subsequent transmission.
func (ep *Endpoint) SetExtraLatency(d time.Duration) { ep.extraLatency = d }

// SetLoss enables segment loss in both directions of the link.
func (l *Link) SetLoss(prob float64, rto time.Duration) {
	l.A.SetLoss(prob, rto)
	l.B.SetLoss(prob, rto)
}

// SetPartitioned partitions (or heals) both directions of the link.
func (l *Link) SetPartitioned(part bool) {
	l.A.SetDown(part)
	l.B.SetDown(part)
}

// SetExtraLatency injects path latency into both directions of the link.
func (l *Link) SetExtraLatency(d time.Duration) {
	l.A.SetExtraLatency(d)
	l.B.SetExtraLatency(d)
}

// NewLink connects two endpoints through the given NICs. For VMs on the
// same physical host with SR-IOV, pass the same NIC for both sides: the
// traffic hairpins through the port and both directions contend for it,
// exactly the single-host setup of the paper's §3.1 characterization.
func NewLink(e *sim.Engine, params model.LinkParams, nicA, nicB *NIC) *Link {
	a := newEndpoint(e, params, nicA)
	b := newEndpoint(e, params, nicB)
	a.peer, b.peer = b, a
	return &Link{A: a, B: b}
}

func newEndpoint(e *sim.Engine, params model.LinkParams, nic *NIC) *Endpoint {
	ep := &Endpoint{
		e: e, params: params, tx: nic.TX, rx: nic.RX,
		inbox: sim.NewQueue[*Message](e, 0), inflight: sim.NewQueue[*Message](e, 0),
	}
	ep.deliverFn = ep.deliver
	return ep
}

// deliver moves the oldest in-flight message into the inbox.
func (ep *Endpoint) deliver() {
	msg, _ := ep.inflight.TryGet()
	ep.inbox.TryPut(msg)
	if ep.OnDeliver != nil {
		ep.OnDeliver()
	}
}

// NewLoopLink creates a link on a dedicated pair of NICs at the link
// parameters' wire speed, for tests and single-tenant setups.
func NewLoopLink(e *sim.Engine, params model.LinkParams) *Link {
	return NewLink(e, params, NewNIC(e, params.WireBytesPerSec), NewNIC(e, params.WireBytesPerSec))
}

// Params returns the link parameters of this endpoint.
func (ep *Endpoint) Params() model.LinkParams { return ep.params }

// Pending returns the number of delivered-but-unread messages.
func (ep *Endpoint) Pending() int { return ep.inbox.Len() }

// Send transmits msg to the peer endpoint. The calling process pays the
// sender-side stack cost and blocks if the TX wire is backlogged past its
// cap; wire serialization and propagation then proceed asynchronously.
func (ep *Endpoint) Send(p *sim.Proc, msg *Message) {
	size := msg.wireSize()
	msg.SentAt = p.Now()

	// Sender stack CPU (copy to socket buffer, segmentation, doorbell).
	p.Sleep(ep.params.PerMsgCPU + time.Duration(float64(size)*ep.params.PerByteCPUNanos))

	// Network partition: the message is transmitted but never delivered.
	// The sender still pays its stack cost — it cannot know the path died.
	if ep.down || ep.peer.down {
		ep.Drops++
		ep.MsgsSent++
		ep.BytesSent += int64(size)
		if ep.tracer != nil {
			ep.tracer.record(p.Now(), "drop", msg)
		}
		return
	}

	// Send-buffer backpressure.
	if over := ep.tx.backlog() - ep.tx.backlogCap; over > 0 {
		p.Sleep(over)
	}

	txDone := ep.tx.serialize(p.Now(), size)
	if ep.lossProb > 0 && ep.lossRng.Float64() < ep.lossProb {
		// Segment lost: the retransmission leaves after the RTO and pays
		// the wire again.
		ep.Retransmits++
		txDone = ep.tx.serialize(txDone.Add(ep.rto), size)
	}
	arrive := txDone.Add(ep.params.Propagation + ep.extraLatency)
	rxDone := ep.peer.rx.serialize(arrive, size)

	ep.MsgsSent++
	ep.BytesSent += int64(size)
	if ep.tracer != nil {
		ep.tracer.record(p.Now(), "tx", msg)
	}

	ep.peer.inflight.TryPut(msg)
	ep.e.At(rxDone, ep.peer.deliverFn)
}

// Recv blocks until a message arrives (interrupt mode). If the process had
// to block, the interrupt wakeup penalty is paid before the message is
// processed; the receive stack cost is always paid.
func (ep *Endpoint) Recv(p *sim.Proc) *Message {
	msg, ok := ep.inbox.TryGet()
	if !ok {
		msg, _ = ep.inbox.Get(p)
		ep.Wakeups++
		p.Sleep(ep.params.WakeupPenalty)
	}
	ep.finishRecv(p, msg)
	return msg
}

// RecvPoll busy-polls for up to budget. On a hit the message is processed
// with no wakeup penalty (the poll loop was already on-CPU). On a miss it
// returns nil and the caller decides whether to keep polling, do other
// work, or fall back to interrupt mode. The polling time itself elapses on
// the calling process — polling is not free, which is exactly the tradeoff
// Fig 10 explores.
func (ep *Endpoint) RecvPoll(p *sim.Proc, budget time.Duration) *Message {
	msg, ok := ep.inbox.GetTimeout(p, budget)
	if !ok {
		ep.PollMisses++
		return nil
	}
	ep.PollHits++
	ep.finishRecv(p, msg)
	return msg
}

// TryRecv returns an already-delivered message without blocking or
// polling.
func (ep *Endpoint) TryRecv(p *sim.Proc) *Message {
	msg, ok := ep.inbox.TryGet()
	if !ok {
		return nil
	}
	ep.finishRecv(p, msg)
	return msg
}

// ChargeWakeup records an interrupt-mode wakeup and charges its latency
// penalty to the calling process. Reactors that drain the inbox with
// TryRecv call this when a network delivery wakes them from idle.
func (ep *Endpoint) ChargeWakeup(p *sim.Proc) {
	ep.Wakeups++
	p.Sleep(ep.params.WakeupPenalty)
}

// finishRecv charges receiver stack costs and updates counters.
func (ep *Endpoint) finishRecv(p *sim.Proc, msg *Message) {
	size := msg.wireSize()
	p.Sleep(ep.params.PerMsgCPU + time.Duration(float64(size)*ep.params.PerByteCPUNanos))
	ep.MsgsRecv++
	ep.BytesRecv += int64(size)
	if ep.tracer != nil {
		ep.tracer.record(p.Now(), "rx", msg)
	}
}
