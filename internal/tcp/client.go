// Package tcp implements the NVMe/TCP transport on the simulated network:
// the host-side queue (client) and the target-side connection server,
// including in-capsule and R2T flow control, application-level chunking,
// and the interrupt/busy-poll receive modes that the adaptive fabric
// tunes (§4.5 of the paper). The session machinery (CID table, reactor,
// deadlines, batching) lives in internal/session; this file is the thin
// TCP wire binding.
package tcp

import (
	"sync/atomic"
	"time"

	"nvmeoaf/internal/model"
	"nvmeoaf/internal/netsim"
	"nvmeoaf/internal/nvme"
	"nvmeoaf/internal/pdu"
	"nvmeoaf/internal/qos"
	"nvmeoaf/internal/session"
	"nvmeoaf/internal/sim"
	"nvmeoaf/internal/telemetry"
	"nvmeoaf/internal/transport"
)

// ClientConfig configures one NVMe/TCP host queue.
type ClientConfig struct {
	// NQN names the target subsystem.
	NQN string
	// QueueDepth bounds outstanding commands.
	QueueDepth int
	// TP holds protocol knobs (chunk size, in-capsule threshold, busy
	// poll budget).
	TP model.TCPTransportParams
	// Host holds client software costs.
	Host model.HostParams
	// KeepAlive, when positive, sends a keep-alive admin command at this
	// interval so the target's KATO watchdog keeps the connection alive
	// (NVMe-oF keep-alive timer).
	KeepAlive time.Duration
	// CommandTimeout, when positive, bounds each command attempt;
	// expired commands retry with backoff (MaxRetries, RetryBackoff)
	// before failing with a transient transport error. Off by default.
	CommandTimeout time.Duration
	MaxRetries     int
	RetryBackoff   time.Duration
	// HostNQN identifies this host in the Fabrics Connect command
	// (defaults to a generated NQN).
	HostNQN string
	// Telemetry receives counters and latency histograms (nil disables).
	Telemetry *telemetry.Sink
	// Tenant names the tenant this queue submits for (carried in the
	// Fabrics Connect hostNQN); QoS is the host-side per-tenant
	// admission shaper (nil = off).
	Tenant string
	QoS    *qos.Shaper
}

// Client is one NVMe/TCP host queue pair over a network endpoint.
type Client struct {
	*session.Host
	wire *tcpWire
}

// tcpWire is the plain-TCP data path: in-capsule writes under the
// threshold, R2T-granted chunk streaming above it, nothing else.
type tcpWire struct {
	h   *session.Host
	ep  *netsim.Endpoint
	cfg *ClientConfig
	// chunkB is the live host-side chunk size (atomic: adjustable from
	// the tuning controller or an operator goroutine mid-run).
	chunkB atomic.Int64
}

// Connect performs the ICReq/ICResp exchange over ep and starts the client
// reactor. The calling process drives the handshake.
func Connect(p *sim.Proc, ep *netsim.Endpoint, cfg ClientConfig) (*Client, error) {
	e := p.Engine()
	w := &tcpWire{ep: ep, cfg: &cfg}
	// 0 keeps the legacy no-chunking behaviour for configs without TP.
	w.chunkB.Store(int64(cfg.TP.ChunkSize))
	h := session.NewHost(e, ep, session.HostConfig{
		Label:            "tcp",
		NQN:              cfg.NQN,
		HostNQN:          cfg.HostNQN,
		QueueDepth:       cfg.QueueDepth,
		Host:             cfg.Host,
		BatchSize:        cfg.TP.BatchSize,
		CommandTimeout:   cfg.CommandTimeout,
		MaxRetries:       cfg.MaxRetries,
		RetryBackoff:     cfg.RetryBackoff,
		KeepAlive:        cfg.KeepAlive,
		InterruptWakeups: true,
		Telemetry:        cfg.Telemetry,
		Tenant:           cfg.Tenant,
		QoS:              cfg.QoS,
	}, w)
	w.h = h
	if err := h.Handshake(p); err != nil {
		return nil, err
	}
	h.Telemetry().Trace(int64(p.Now()), telemetry.EvPathSelected, 0, "tcp", "nvme-tcp")
	h.Start()
	return &Client{Host: h, wire: w}, nil
}

func (w *tcpWire) BuildICReq(reconnect bool) *pdu.ICReq {
	return &pdu.ICReq{PFV: 0, HPDA: 4, MaxR2T: 16}
}

func (w *tcpWire) AdoptICResp(resp *pdu.ICResp) {}

func (w *tcpWire) Admit(io *transport.IO) nvme.Status { return nvme.StatusSuccess }

// StageSubmit charges payload generation for writes on the ringing
// process.
func (w *tcpWire) StageSubmit(p *sim.Proc, train *session.Pending) { w.h.ChargeFill(p, train) }

// MakeIOEntry builds the read/write entry; small writes ride in-capsule
// with the command (§4.4.2).
func (w *tcpWire) MakeIOEntry(pend *session.Pending) pdu.BatchEntry {
	io := pend.IO
	tel := w.h.Telemetry()
	tel.Inc(telemetry.CtrSubmitsTCP)
	tel.Observe(telemetry.HistIOSize, int64(io.Size))
	slba := uint64(io.Offset / transport.BlockSize)
	nlb := uint32(io.Size / transport.BlockSize)
	var cmd nvme.Command
	if io.Write {
		cmd = nvme.NewWrite(pend.CID, io.Nsid(), slba, nlb)
	} else {
		cmd = nvme.NewRead(pend.CID, io.Nsid(), slba, nlb)
	}
	e := pdu.BatchEntry{Cmd: cmd}
	if io.Write && io.Size <= w.cfg.TP.InCapsuleThreshold {
		if io.Data != nil {
			e.Data = io.Data
		} else {
			e.VirtualLen = io.Size
		}
		pend.Sent = io.Size
	}
	return e
}

func (w *tcpWire) Transmit(p *sim.Proc, e *pdu.BatchEntry) { w.h.SendCapsule(p, e) }

func (w *tcpWire) TransmitTrain(p *sim.Proc, b *pdu.CmdBatch) {
	transport.SendPDUs(p, w.ep, b)
}

func (w *tcpWire) PollBudget() time.Duration { return w.cfg.TP.BusyPoll }

func (w *tcpWire) PreReactor(p *sim.Proc) {}

func (w *tcpWire) HandlePDU(p *sim.Proc, u pdu.PDU, transit time.Duration) bool {
	if r, ok := u.(*pdu.R2T); ok {
		w.onR2T(p, r)
		return true
	}
	return false
}

func (w *tcpWire) ReleaseAttempt(pend *session.Pending) {}

// onR2T streams the granted write payload as chunk-sized H2CData PDUs.
func (w *tcpWire) onR2T(p *sim.Proc, r *pdu.R2T) {
	pend, ok := w.h.LookupPending(r.CID)
	if !ok {
		w.h.NoteLate() // grant for a command already reaped
		return
	}
	io := pend.IO
	grantEnd := int(r.Offset) + int(r.Length)
	transport.ChunkSizes(grantEnd-int(r.Offset), w.chunk(), func(off, n int) {
		dataOff := int(r.Offset) + off
		d := &pdu.Data{
			Dir:    pdu.TypeH2CData,
			CID:    r.CID,
			TTag:   r.TTag,
			Offset: uint32(dataOff),
			Last:   dataOff+n >= io.Size,
		}
		if io.Data != nil {
			d.Payload = io.Data[dataOff : dataOff+n]
		} else {
			d.VirtualLen = n
		}
		transport.SendPDUs(p, w.ep, d)
	})
	pend.Sent += int(r.Length)
}

// chunk returns the effective chunk size: the live knob, capped by the
// target's negotiated MaxH2CData.
func (w *tcpWire) chunk() int {
	c := int(w.chunkB.Load())
	if icresp := w.h.ICResp(); icresp != nil && icresp.MaxH2CData > 0 && int(icresp.MaxH2CData) < c {
		return int(icresp.MaxH2CData)
	}
	return c
}

// SetChunkSize adjusts the host-side chunk size live (block aligned, at
// least one block). Sizes below the negotiated MaxH2CData take effect on
// the next R2T grant; larger values are staged — they apply up to the
// negotiated ceiling now and fully after the next (re)negotiation, the
// honest treatment of a knob whose target half is immutable per
// connection.
func (c *Client) SetChunkSize(n int) {
	if n < transport.BlockSize {
		n = transport.BlockSize
	}
	n -= n % transport.BlockSize
	c.wire.chunkB.Store(int64(n))
}

// LiveChunkSize returns the host-side chunk size knob (which may exceed
// the per-connection negotiated ceiling; see SetChunkSize).
func (c *Client) LiveChunkSize() int { return int(c.wire.chunkB.Load()) }
