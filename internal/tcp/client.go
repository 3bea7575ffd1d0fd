// Package tcp implements the NVMe/TCP transport on the simulated network:
// the host-side queue (client) and the target-side connection server,
// including in-capsule and R2T flow control, application-level chunking,
// and the interrupt/busy-poll receive modes that the adaptive fabric
// tunes (§4.5 of the paper). The session machinery (CID table, reactor,
// deadlines, batching) lives in internal/session; this file is the thin
// TCP wire binding.
//
// ClientConfig and ServerConfig embed session.ConnOptions/ServeOptions
// (documented there) and add only this binding's own knobs; builders
// reach Connect and NewServer through internal/dial.
package tcp

import (
	"time"

	"nvmeoaf/internal/model"
	"nvmeoaf/internal/netsim"
	"nvmeoaf/internal/nvme"
	"nvmeoaf/internal/pdu"
	"nvmeoaf/internal/session"
	"nvmeoaf/internal/sim"
	"nvmeoaf/internal/telemetry"
	"nvmeoaf/internal/transport"
)

// ClientConfig configures one NVMe/TCP host queue.
type ClientConfig struct {
	session.ConnOptions
	// TP holds protocol knobs (chunk size, in-capsule threshold, busy
	// poll budget); the zero value means model.DefaultTCPTransport().
	TP model.TCPTransportParams
}

// Client is one NVMe/TCP host queue pair over a network endpoint.
type Client struct {
	*session.Host
	*session.ChunkKnob
}

// tcpWire is the plain-TCP data path: in-capsule writes under the
// threshold, R2T-granted chunk streaming above it, nothing else.
type tcpWire struct {
	h     *session.Host
	ep    *netsim.Endpoint
	cfg   *ClientConfig
	chunk *session.ChunkKnob
}

// Connect performs the ICReq/ICResp exchange over ep and starts the client
// reactor. The calling process drives the handshake.
func Connect(p *sim.Proc, ep *netsim.Endpoint, cfg ClientConfig) (*Client, error) {
	cfg.TP = cfg.TP.OrDefault()
	e := p.Engine()
	w := &tcpWire{ep: ep, cfg: &cfg, chunk: session.NewChunkKnob(cfg.TP.ChunkSize)}
	h := session.NewHost(e, ep, session.HostConfig{
		ConnOptions:      cfg.ConnOptions,
		Label:            "tcp",
		Host:             model.DefaultHost(),
		BatchSize:        cfg.TP.BatchSize,
		InterruptWakeups: true,
	}, w)
	w.h = h
	if err := h.Handshake(p); err != nil {
		return nil, err
	}
	h.Telemetry().Trace(int64(p.Now()), telemetry.EvPathSelected, 0, "tcp", "nvme-tcp")
	h.Start()
	return &Client{Host: h, ChunkKnob: w.chunk}, nil
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
	transport.ChunkSizes(grantEnd-int(r.Offset), w.chunk.Chunk(w.h.ICResp()), func(off, n int) {
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
