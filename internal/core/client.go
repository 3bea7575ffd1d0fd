package core

import (
	"time"

	"nvmeoaf/internal/model"
	"nvmeoaf/internal/netsim"
	"nvmeoaf/internal/nvme"
	"nvmeoaf/internal/pdu"
	"nvmeoaf/internal/session"
	"nvmeoaf/internal/shm"
	"nvmeoaf/internal/sim"
	"nvmeoaf/internal/telemetry"
	"nvmeoaf/internal/transport"
)

// ClientConfig configures one NVMe-oAF or NVMe/TCP host queue. Retries
// always use the TCP data path: after a failure the shared-memory channel
// is suspect.
type ClientConfig struct {
	session.ConnOptions
	// TrType is the NVMe transport type the queue presents:
	// nvme.TrTypeAdaptive (the zero value) or nvme.TrTypeTCP, plain
	// NVMe/TCP, which ignores Design and Region.
	TrType uint8
	// Design selects the shared-memory data-path design; DesignTCP (or a
	// nil Region) uses the optimized TCP path.
	Design Design
	// Region is the shared-memory mapping hotplugged for this
	// client-target pair; nil when the pair is remote.
	Region *shm.Region
	// TP holds TCP-channel knobs (chunk size, in-capsule threshold, busy
	// poll budget); the zero value means model.DefaultTCPTransport().
	TP model.TCPTransportParams
}

// Client is the NVMe-oAF host queue: control path over TCP, data path
// over shared memory when the locality check succeeded at connect time
// (and always over TCP for an NVMe/TCP queue). The session machinery
// (CID table, reactor, deadlines, batching, keep-alive) lives in
// internal/session; this file is the adaptive-fabric wire binding.
type Client struct {
	*session.Host
	*session.ChunkKnob
	wire *oafWire

	// SHMPayloadBytes counts payload moved over the shared-memory channel
	// instead of the wire; Failovers counts mid-stream SHM→TCP data-path
	// switches.
	SHMPayloadBytes int64
	Failovers       int64
}

// oafWire is the adaptive data path: whole-I/O or chunked shared-memory
// slots when the locality check admitted the region, the optimized TCP
// flow otherwise — with mid-stream failover from the former to the
// latter.
type oafWire struct {
	cl     *Client
	h      *session.Host
	ep     *netsim.Endpoint
	cfg    *ClientConfig
	region *shm.Region // non-nil when the AF negotiated shared memory
	policy pollPolicy
	chunk  *session.ChunkKnob // the TCP channel's live chunk size

	// slotScratch backs the amortized multi-slot claim in StageSubmit.
	slotScratch []shm.Slot
	// h2c is the reactor's scratch for the H2CData PDUs of an R2T grant
	// (SendPDUs encodes before it returns).
	h2c pdu.Data
}

// Connect performs the adaptive-fabric handshake on ep. The Connection
// Manager proposes the hotplugged region (if any); the target's locality
// check accepts or declines it, and the client falls back to the TCP data
// path when declined.
func Connect(p *sim.Proc, ep *netsim.Endpoint, cfg ClientConfig) (*Client, error) {
	cfg.TP = cfg.TP.OrDefault()
	if cfg.TrType == nvme.TrTypeTCP {
		cfg.Design, cfg.Region = DesignTCP, nil
	}
	if cfg.TP.AutoChunk {
		// Adaptive chunk selection from the link hardware (§4.5).
		cfg.TP.ChunkSize = SelectChunkSize(ep.Params())
	}
	e := p.Engine()
	w := &oafWire{ep: ep, cfg: &cfg, chunk: session.NewChunkKnob(cfg.TP.ChunkSize)}
	h := session.NewHost(e, ep, session.HostConfig{
		ConnOptions:      cfg.ConnOptions,
		Label:            label(cfg.TrType),
		Host:             model.DefaultHost(),
		BatchSize:        cfg.TP.BatchSize,
		InterruptWakeups: true,
	}, w)
	w.h = h
	c := &Client{Host: h, ChunkKnob: w.chunk, wire: w}
	w.cl = c
	if err := h.Handshake(p); err != nil {
		return nil, err
	}
	if h.ICResp().AFEnabled {
		w.region = cfg.Region
	}
	if w.region != nil {
		// Wake the reactor the instant the helper revokes the mapping so
		// the failover happens before blocked claimers pile up.
		w.region.OnRevoke(h.Kick)
		h.Telemetry().Trace(int64(p.Now()), telemetry.EvPathSelected, 0, "shm", cfg.Design.String())
	} else if cfg.TrType == nvme.TrTypeTCP {
		h.Telemetry().Trace(int64(p.Now()), telemetry.EvPathSelected, 0, "tcp", "nvme-tcp")
	} else {
		h.Telemetry().Trace(int64(p.Now()), telemetry.EvPathSelected, 0, "tcp", cfg.Design.String())
	}
	h.Start()
	return c, nil
}

// SHMEnabled reports whether the data path uses shared memory.
func (c *Client) SHMEnabled() bool { return c.wire.region != nil }

// Health shadows the session engine's report: a queue that failed over
// from shared memory to the TCP data path mid-stream still serves, but
// reports degraded so striped groups and replication layers can see
// which member lost its fast path.
func (c *Client) Health() transport.Health {
	if h := c.Host.Health(); h != transport.HealthHealthy {
		return h
	}
	if c.Failovers > 0 {
		return transport.HealthDegraded
	}
	return transport.HealthHealthy
}

// Region returns the negotiated shared-memory region, or nil on the TCP
// data path (never negotiated, or abandoned by a mid-stream failover).
func (c *Client) Region() *shm.Region { return c.wire.region }

// AllocBuffer returns an I/O buffer from the Buffer Manager: a shared-
// memory-resident buffer in the zero-copy design (the co-design hook the
// paper adds to SPDK perf and h5bench), a private buffer otherwise. The
// returned IO should be submitted with NoFill if the caller charges its
// own generation cost.
func (c *Client) AllocBuffer(size int) []byte {
	// The slot itself is claimed at submission; this sizes the private
	// staging buffer the app fills. Zero-copy submissions with real data
	// copy into the slot as bookkeeping only.
	return make([]byte, size)
}

// BuildICReq proposes the hotplugged region in the handshake; on
// reconnect a revoked region is no longer proposed (the data path
// renegotiates to TCP).
func (w *oafWire) BuildICReq(reconnect bool) *pdu.ICReq {
	req := &pdu.ICReq{PFV: 0, HPDA: 4, MaxR2T: 16}
	if w.cfg.Design.UsesSHM() && w.cfg.Region != nil && (!reconnect || !w.cfg.Region.Revoked()) {
		req.AFCapab = true
		req.SHMKey = w.cfg.Region.Key
	}
	return req
}

// AdoptICResp adopts the renegotiated data path after a mid-stream
// reconnect: shared memory only if the target re-admitted the (still
// live) region.
func (w *oafWire) AdoptICResp(resp *pdu.ICResp) {
	if resp.AFEnabled && w.cfg.Region != nil && !w.cfg.Region.Revoked() {
		w.region = w.cfg.Region
	} else {
		w.region = nil
	}
}

func (w *oafWire) Admit(io *transport.IO) nvme.Status {
	if io.Admin == 0 && !io.Flush && w.region != nil && !w.cfg.Design.Chunked() && io.Size > w.region.SlotSize {
		// The negotiated shared-memory slot bounds the transfer size
		// (the fabric's MDTS); larger I/O must be split by the caller.
		return nvme.StatusInvalidField
	}
	return nvme.StatusSuccess
}

// StageSubmit feeds the adaptive busy-poll policy and produces and stages
// the train's write payloads for the selected data path. The whole-I/O
// slot designs claim the train's H2C slots with one amortized ClaimN
// (SlotOverhead paid once; shared-memory flow control blocks here while
// all slots are busy) and claim one by one whatever that did not cover.
func (w *oafWire) StageSubmit(p *sim.Proc, train *session.Pending) {
	writes := 0
	for pend := train; pend != nil; pend = pend.Next {
		io := pend.IO
		if io.Admin == 0 && !io.Flush {
			w.policy.observe(io.Write)
		}
		if io.Write && io.Admin == 0 {
			writes++
		}
	}
	if writes == 0 {
		return
	}
	// Whole-I/O slot designs claim up front; on the TCP path and in the
	// chunked designs (slots claimed after R2T) the payload is produced
	// into a private buffer, which is what the zero slot means.
	region := w.region
	whole := region != nil && !w.cfg.Design.Chunked()
	var slots []shm.Slot
	if whole {
		// Another process may ring this queue while this one blocks in the
		// claim, so the scratch is taken, not shared.
		scratch := w.slotScratch
		w.slotScratch = nil
		slots = region.ClaimN(p, shm.H2C, writes, scratch[:0])
	}
	next := 0
	for pend := train; pend != nil; pend = pend.Next {
		if io := pend.IO; !io.Write || io.Admin != 0 {
			continue
		}
		switch {
		case next < len(slots):
			w.stageWrite(p, pend, slots[next])
			next++
		case !whole || region.Revoked():
			// Revoked mid-train: the remaining writes fall to TCP.
			w.stageWrite(p, pend, shm.Slot{})
		default:
			// The amortized claim ran out of immediate credits: claim
			// the rest one by one (blocking, classic per-slot overhead).
			w.stageWrite(p, pend, region.Claim(p, shm.H2C))
		}
	}
	if slots != nil {
		w.slotScratch = slots[:0]
	}
}

// stageWrite produces the write payload and moves it into the given
// pre-claimed H2C slot (zero slot: TCP data path, private buffer only).
func (w *oafWire) stageWrite(p *sim.Proc, pend *session.Pending, slot shm.Slot) {
	io := pend.IO
	fill := func() { w.h.FillPayload(p, io) }
	if !slot.Valid() {
		fill()
		return
	}
	region := slot.Region()
	pend.Slot = slot
	if w.cfg.Design.ZeroCopy() && !region.Encrypted() {
		// The application buffer *is* the slot: fill in place, no copy.
		fill()
		if io.Data != nil {
			copy(slot.Bytes(), io.Data) // bookkeeping only: app wrote here directly
		}
	} else if w.cfg.Design.ZeroCopy() {
		// Channel encryption (§6 extension) forfeits part of the
		// zero-copy benefit: the payload must be enciphered into the
		// region.
		fill()
		slot.CopyIn(p, io.Data, io.Size)
	} else {
		// Fill privately, then copy into the shared region.
		fill()
		slot.CopyIn(p, io.Data, io.Size)
	}
	w.cl.SHMPayloadBytes += int64(io.Size)
}

// MakeIOEntry records per-path submit telemetry and builds the wire entry
// for a read/write command: slot-named capsule on the shared-memory flow,
// bare or in-capsule on TCP.
func (w *oafWire) MakeIOEntry(pend *session.Pending) pdu.BatchEntry {
	io := pend.IO
	tel := w.h.Telemetry()
	// The data path in effect for this attempt: retried commands pin
	// TCP, everything else follows the negotiated region.
	if w.region != nil && pend.Attempts == 0 {
		tel.Inc(telemetry.CtrSubmitsSHM)
	} else {
		tel.Inc(telemetry.CtrSubmitsTCP)
	}
	tel.Observe(telemetry.HistIOSize, int64(io.Size))
	slba := uint64(io.Offset / transport.BlockSize)
	nlb := uint32(io.Size / transport.BlockSize)
	if !io.Write {
		return pdu.BatchEntry{Cmd: nvme.NewRead(pend.CID, io.Nsid(), slba, nlb)}
	}
	cmd := nvme.NewWrite(pend.CID, io.Nsid(), slba, nlb)
	if io.Data != nil && w.cfg.Design.UsesSHM() {
		// Tell the target real bytes sit in shared memory so it
		// materializes its bounce buffer (simulation bookkeeping).
		cmd.PRP2 = 1
	}
	// Retried writes pin the TCP data path: after a timeout or transfer
	// failure the shared-memory channel is suspect, and TCP always works.
	viaTCP := w.region == nil || pend.Attempts > 0
	switch {
	case pend.Slot.Valid():
		// Shared-memory flow control: the payload already sits in the
		// slot; the capsule names it and no R2T round trip happens
		// regardless of I/O size (steps 2 and 4 of Fig 7 eliminated).
		cmd.Flags = session.CmdFlagSHMSlot
		cmd.PRP1 = uint64(pend.Slot.Index)
		return pdu.BatchEntry{Cmd: cmd}
	case !viaTCP:
		// Chunked SHM design: conservative flow; wait for R2T, then move
		// payload through chunk slots.
		return pdu.BatchEntry{Cmd: cmd}
	case io.Size <= w.cfg.TP.InCapsuleThreshold:
		e := pdu.BatchEntry{Cmd: cmd}
		if io.Data != nil {
			e.Data = io.Data
		} else {
			e.VirtualLen = io.Size
		}
		return e
	default:
		return pdu.BatchEntry{Cmd: cmd}
	}
}

func (w *oafWire) Transmit(p *sim.Proc, e *pdu.BatchEntry) { w.h.SendCapsule(p, e) }

func (w *oafWire) TransmitTrain(p *sim.Proc, b *pdu.CmdBatch) {
	transport.SendPDUs(p, w.ep, b)
}

// PollBudget returns the busy-poll budget: the static configuration, or
// the workload-aware adaptive policy's recommendation (§4.5).
func (w *oafWire) PollBudget() time.Duration {
	if w.cfg.TP.AutoBusyPoll {
		return w.policy.budget()
	}
	return w.cfg.TP.BusyPoll
}

// PreReactor fails over to the TCP data path when the region was revoked:
// in-flight transfers through the region surface as typed errors or
// deadline hits and re-drive over TCP.
func (w *oafWire) PreReactor(p *sim.Proc) {
	if w.region != nil && w.region.Revoked() {
		w.region = nil
		w.cl.Failovers++
		tel := w.h.Telemetry()
		tel.Inc(telemetry.CtrFailovers)
		tel.Trace(int64(p.Now()), telemetry.EvFailover, 0, "tcp", "region-revoked")
	}
}

func (w *oafWire) HandlePDU(p *sim.Proc, u pdu.PDU, transit time.Duration) bool {
	switch v := u.(type) {
	case *pdu.R2T:
		w.onR2T(p, v)
	case *pdu.SHMNotify:
		w.onSHMNotify(p, v, transit)
	case *pdu.SHMRelease:
		w.onSHMRelease(p, v)
	default:
		return false
	}
	return true
}

// ReleaseAttempt reclaims a write's payload slot with the tolerant
// release: the target may have consumed and freed it already, and the
// slot's generation keeps a later claim of it safe.
func (w *oafWire) ReleaseAttempt(pend *session.Pending) {
	if pend.Slot.Valid() {
		pend.Slot.TryRelease()
		pend.Slot = shm.Slot{}
	}
}

// onR2T moves write payload: through chunk slots on the shared-memory
// channel, or as H2CData PDUs on the TCP path.
func (w *oafWire) onR2T(p *sim.Proc, r *pdu.R2T) {
	pend, ok := w.h.LookupPending(r.CID)
	if !ok {
		w.h.NoteLate() // R2T for a command already reaped by its deadline
		return
	}
	io := pend.IO
	if w.region != nil && pend.Attempts == 0 {
		// Chunked shared-memory transfer with conservative stop-and-wait
		// flow control (the naive pre-flow-control data path): one chunk
		// moves per target acknowledgement, exactly the extra control
		// messages §4.4.2 eliminates.
		pend.WNext = int(r.Offset)
		pend.WEnd = int(r.Offset) + int(r.Length)
		w.sendWriteChunk(p, pend)
		return
	}
	transport.ChunkSizes(int(r.Length), w.chunk.Chunk(w.h.ICResp()), func(off, n int) {
		dataOff := int(r.Offset) + off
		d := &w.h2c
		*d = pdu.Data{
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
}

// sendWriteChunk moves the next chunk of a conservative write into a
// shared-memory slot and notifies the target. A revoked region marks the
// transfer's payload lost; the command re-drives over TCP when the
// target's typed error (or the deadline) comes back.
func (w *oafWire) sendWriteChunk(p *sim.Proc, pend *session.Pending) {
	region := w.region
	if region == nil {
		pend.DataLost = true
		return
	}
	io := pend.IO
	n := region.SlotSize
	if n > pend.WEnd-pend.WNext {
		n = pend.WEnd - pend.WNext
	}
	dataOff := pend.WNext
	slot := region.Claim(p, shm.H2C)
	if !slot.Valid() {
		pend.DataLost = true
		return
	}
	var src []byte
	if io.Data != nil {
		src = io.Data[dataOff : dataOff+n]
	}
	slot.CopyIn(p, src, n)
	transport.SendPDUs(p, w.ep, &pdu.SHMNotify{
		CID:    pend.CID,
		Slot:   slot.Index,
		Offset: uint64(dataOff),
		Length: uint32(n),
		Last:   dataOff+n >= io.Size,
	})
	pend.WNext += n
	w.cl.SHMPayloadBytes += int64(n)
}

// onSHMRelease is the target's per-chunk acknowledgement in the
// conservative flow: send the next chunk.
func (w *oafWire) onSHMRelease(p *sim.Proc, rel *pdu.SHMRelease) {
	pend, ok := w.h.LookupPending(rel.CID)
	if !ok {
		return // command already completed
	}
	if pend.WNext < pend.WEnd {
		w.sendWriteChunk(p, pend)
	}
}

// onSHMNotify consumes read payload from a shared-memory slot: a charged
// copy-out in the non-zero-copy designs, an in-place consume (bookkeeping
// copy only) in the zero-copy design. The slot returns to the target's
// allocator immediately — slot state lives in the shared region itself,
// so no release message crosses the wire.
func (w *oafWire) onSHMNotify(p *sim.Proc, n *pdu.SHMNotify, transit time.Duration) {
	region := w.region
	pend, ok := w.h.LookupPending(n.CID)
	if !ok {
		// Late notify for a command already reaped by its deadline:
		// consume and free the slot anyway, or the target's C2H credit
		// never returns and its read workers wedge on a full ring.
		w.h.NoteLate()
		if region != nil {
			if slot, err := region.Open(shm.C2H, n.Slot); err == nil {
				slot.TryRelease()
			}
		}
		return
	}
	if region == nil {
		// Failed over after the target copied in: the payload is gone
		// with the region. The response completes the command through
		// the retry path.
		pend.DataLost = true
		return
	}
	slot, err := region.Open(shm.C2H, n.Slot)
	if err != nil {
		pend.DataLost = true
		return
	}
	dst, ok := pend.Window(n.Offset)
	if !ok || (dst != nil && len(dst) < int(n.Length)) {
		// Not this command's payload (see Host.onData); the slot still
		// goes back to the target.
		slot.TryRelease()
		w.h.NoteLate()
		pend.DataLost = true
		return
	}
	if dst != nil {
		dst = dst[:n.Length]
	}
	if w.cfg.Design.ZeroCopy() && !region.Encrypted() {
		// The app buffer is shared-memory resident: no copy-out. The Go
		// copy below only materializes the bytes for the caller's view.
		copy(dst, slot.Bytes())
	} else {
		slot.CopyOut(p, dst, int(n.Length))
	}
	slot.TryRelease()
	pend.Received += int(n.Length)
	pend.Comm += transit
	w.cl.SHMPayloadBytes += int64(n.Length)
	// Conservative flow control (chunked designs): acknowledge the chunk
	// so the target moves the next one.
	if w.cfg.Design.Chunked() && !n.Last {
		transport.SendPDUs(p, w.ep, &pdu.SHMRelease{CID: n.CID, Slot: n.Slot})
	}
}
