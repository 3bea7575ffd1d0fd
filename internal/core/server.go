package core

import (
	"sort"
	"time"

	"nvmeoaf/internal/mempool"
	"nvmeoaf/internal/model"
	"nvmeoaf/internal/nvme"
	"nvmeoaf/internal/pdu"
	"nvmeoaf/internal/session"
	"nvmeoaf/internal/shm"
	"nvmeoaf/internal/sim"
	"nvmeoaf/internal/target"
	"nvmeoaf/internal/telemetry"
	"nvmeoaf/internal/transport"
)

// ServerConfig configures one target's NVMe-oAF or NVMe/TCP transport.
type ServerConfig struct {
	session.ServeOptions
	// TrType is the NVMe transport type served (see ClientConfig.TrType);
	// an NVMe/TCP server ignores Design and Fabric.
	TrType uint8
	// Design must match the client's shared-memory design (negotiated
	// deployments run one design fleet-wide; the ablation harness sets
	// both sides).
	Design Design
	// Fabric resolves shared-memory region keys during the locality
	// check.
	Fabric *Fabric
	// TP holds protocol knobs; DataBuffers chunk-sized buffers form the
	// DPDK-style data pool.
	TP model.TCPTransportParams
	// PoisonPool fills freed data-pool elements with mempool.PoisonByte
	// so stale reads of returned buffers surface as corruption in
	// data-integrity tests instead of silently passing.
	PoisonPool bool
}

// Server is the NVMe-oAF (or NVMe/TCP) transport of one target: the
// session engine drives its connections; this file binds the adaptive
// shared-memory data path (locality check, slot transfers, mid-stream
// failover).
type Server struct {
	*session.Target
	cfg  ServerConfig
	pool *mempool.Pool

	// SHMConns counts connections that negotiated shared memory.
	SHMConns int64
}

// NewServer creates the adaptive-fabric or NVMe/TCP transport for tgt.
func NewServer(e *sim.Engine, tgt *target.Target, cfg ServerConfig) *Server {
	cfg.TP = cfg.TP.OrDefault()
	switch cfg.TrType {
	case 0:
		cfg.TrType = nvme.TrTypeAdaptive
	case nvme.TrTypeTCP:
		cfg.Design, cfg.Fabric = DesignTCP, nil
	}
	lbl := label(cfg.TrType)
	s := &Server{
		cfg:  cfg,
		pool: mempool.New(lbl+"-data/"+cfg.NQN, cfg.TP.ChunkSize, cfg.TP.DataBuffers),
	}
	s.pool.SetPoison(cfg.PoisonPool)
	s.Target = session.NewTarget(e, tgt, session.TargetConfig{
		ServeOptions:     cfg.ServeOptions,
		Label:            lbl,
		ChunkSize:        cfg.TP.ChunkSize,
		BatchSize:        cfg.TP.BatchSize,
		BusyPoll:         cfg.TP.BusyPoll,
		InterruptWakeups: true,
		Pool:             s.pool,
	}, (*oafTargetWire)(s))
	return s
}

// Pool exposes the data buffer pool.
func (s *Server) Pool() *mempool.Pool { return s.pool }

// oafTargetWire binds the engine's connections to the adaptive data
// path.
type oafTargetWire Server

func (s *oafTargetWire) NewConn(c *session.Conn) session.ConnWire {
	w := &oafConnWire{
		s:        (*Server)(s),
		c:        c,
		readAcks: make(map[uint16]*sim.Queue[struct{}]),
	}
	w.onRead, w.onSHMWrite = w.sendRead, w.shmWrite
	return w
}

// oafConnWire is the per-connection adaptive wire: the Connection
// Manager's locality check on handshake, reads and writes through
// shared-memory slots when negotiated, TCP otherwise, and mid-stream
// failover when the region is revoked.
type oafConnWire struct {
	s      *Server
	c      *session.Conn
	region *shm.Region // non-nil after a successful locality check
	// readAcks routes the client's per-chunk acknowledgements to the
	// read worker driving a conservative chunked transfer.
	readAcks   map[uint16]*sim.Queue[struct{}]
	onRead     session.Work // w.sendRead
	onSHMWrite session.Work // w.shmWrite
}

// OnICReq is the Connection Manager's locality check: the client's
// proposed region key must resolve in the fabric registry (i.e. the
// helper process hotplugged the same region on this host). A reconnect
// after crash or KATO teardown re-runs the same negotiation.
func (w *oafConnWire) OnICReq(req *pdu.ICReq) {
	tel := w.c.Target().Telemetry()
	resp := &pdu.ICResp{PFV: req.PFV, CPDA: 4, MaxH2CData: uint32(w.s.cfg.TP.ChunkSize)}
	if req.AFCapab && req.SHMKey != 0 && w.s.cfg.Fabric != nil && w.s.cfg.Design.UsesSHM() {
		if region, ok := w.s.cfg.Fabric.Lookup(req.SHMKey); ok && !region.Revoked() {
			w.region = region
			w.s.SHMConns++
			tel.Inc(telemetry.CtrSrvSHMConns)
			resp.AFEnabled = true
			resp.SHMKey = region.Key
			resp.SHMSize = uint64(region.Size())
			resp.SlotSize = uint32(region.SlotSize)
			resp.SlotCount = uint32(region.SlotCount)
		}
	}
	if !resp.AFEnabled {
		tel.Inc(telemetry.CtrSrvTCPConns)
	}
	w.c.Post(resp)
}

func (w *oafConnWire) TrType() uint8 { return w.s.cfg.TrType }

func (w *oafConnWire) PreLoop() {
	if w.region != nil && w.region.Revoked() {
		w.onRegionRevoked()
	}
}

// onRegionRevoked handles mid-stream shared-memory revocation on the
// target side: every write whose payload was (or would be) moving
// through the region fails with a retryable typed error — the client
// re-drives them over the TCP data path — and the connection stops using
// shared memory for reads.
func (w *oafConnWire) onRegionRevoked() {
	for _, cid := range session.SortedWriteCIDs(w.c.Writes) {
		s := w.c.Writes[cid]
		s.FreeBufs()
		delete(w.c.Writes, cid)
		s.Fail(nvme.StatusDataTransferErr)
	}
	for _, cid := range sortedAckCIDs(w.readAcks) {
		w.readAcks[cid].Close()
		delete(w.readAcks, cid)
	}
	w.region = nil
}

func sortedAckCIDs(m map[uint16]*sim.Queue[struct{}]) []uint16 {
	cids := make([]uint16, 0, len(m))
	for cid := range m {
		cids = append(cids, cid)
	}
	sort.Slice(cids, func(i, j int) bool { return cids[i] < cids[j] })
	return cids
}

// DispatchRead serves a read: over shared memory when negotiated (payload
// copied once from the DPDK buffer into C2H slots), over TCP otherwise.
func (w *oafConnWire) DispatchRead(cmd nvme.Command, transit time.Duration) {
	w.c.StartRead(cmd, transit, w.onRead)
}

func (w *oafConnWire) sendRead(p *sim.Proc, s *session.CmdSlot) {
	res, ok := s.ExecRead(p)
	if !ok {
		return
	}
	region := w.region
	if region != nil && !region.Revoked() && (w.s.cfg.Design.Chunked() || s.Size <= region.SlotSize) {
		w.sendReadOverSHM(p, region, s, res)
		return
	}
	w.c.SendReadOverTCP(s, res)
}

func (w *oafConnWire) DispatchWrite(cap *pdu.CapsuleCmd, size int, transit time.Duration) {
	cmd := cap.Cmd
	if cmd.Flags&session.CmdFlagSHMSlot != 0 {
		w.startSHMWrite(cmd, size, transit)
		return
	}
	inCap := len(cap.Data)
	if inCap == 0 {
		inCap = cap.VirtualLen
	}
	if inCap > 0 {
		// In-capsule flow: one message carried command and payload.
		w.c.ExecWrite(cmd, size, cap.Data, transit)
		return
	}
	w.c.StartConservativeWrite(cmd, size, transit)
}

func (w *oafConnWire) HandlePDU(p *sim.Proc, u pdu.PDU, transit time.Duration) bool {
	switch v := u.(type) {
	case *pdu.SHMNotify:
		w.onSHMNotify(p, v, transit)
	case *pdu.SHMRelease:
		if ackQ, ok := w.readAcks[v.CID]; ok {
			ackQ.TryPut(struct{}{})
		}
	default:
		return false
	}
	return true
}

// Teardown closes per-command ack queues so blocked read workers abort
// instead of parking forever.
func (w *oafConnWire) Teardown() {
	for _, cid := range sortedAckCIDs(w.readAcks) {
		w.readAcks[cid].Close()
		delete(w.readAcks, cid)
	}
}

// startSHMWrite serves a write whose payload sits in a named slot: copy
// it into a DPDK buffer (mandatory for device DMA, §4.4.3), release the
// slot, execute. A revoked or missing region fails the command with a
// retryable typed error; the client re-drives it over TCP.
func (w *oafConnWire) startSHMWrite(cmd nvme.Command, size int, transit time.Duration) {
	s := w.c.Acquire(cmd, size, transit)
	w.c.Exec(s, transport.Chunks(size, w.s.cfg.TP.ChunkSize), "oaf-shm-write-worker", w.onSHMWrite)
}

func (w *oafConnWire) shmWrite(p *sim.Proc, s *session.CmdSlot) {
	c := w.c
	region := w.region
	if region == nil {
		s.FreeBufs()
		c.Kick()
		s.Fail(nvme.StatusDataTransferErr)
		return
	}
	slot, err := region.Open(shm.H2C, uint32(s.Cmd.PRP1))
	if err != nil {
		// Revoked mid-stream, or the slot was reclaimed after a
		// client-side timeout: the payload is unreachable.
		s.FreeBufs()
		c.Kick()
		s.Fail(nvme.StatusDataTransferErr)
		return
	}
	var data []byte
	if realPayload(s) {
		data = make([]byte, s.Size)
	}
	copyStart := p.Now()
	slot.CopyOut(p, data, s.Size)
	copyTime := p.Now().Sub(copyStart)
	slot.TryRelease() // slot credit returns through shared state
	res := s.Execute(p, data)
	s.FreeBufs()
	c.Kick()
	s.Post(s.Resp(res, copyTime))
	s.Release()
}

// realPayload reports whether the client placed real bytes, not a
// modeled payload, in the write's shared-memory slot.
func realPayload(s *session.CmdSlot) bool { return s.Cmd.PRP2 == 1 }

// onSHMNotify consumes a chunk of write payload from a shared-memory
// slot (the chunked designs' data path). The copy-out runs on the
// connection handler — the single target core serializing these copies is
// part of what the lock-free + flow-control optimizations relieve.
func (w *oafConnWire) onSHMNotify(p *sim.Proc, n *pdu.SHMNotify, transit time.Duration) {
	c := w.c
	s, ok := c.Writes[n.CID]
	if !ok {
		c.NoteStale()
		return
	}
	region := w.region
	if region == nil {
		return // revocation handler already failed this write
	}
	slot, err := region.Open(shm.H2C, n.Slot)
	if err != nil {
		// The slot (or the whole region) is gone: fail the write with a
		// retryable error so the client re-drives it over TCP.
		s.FreeBufs()
		delete(c.Writes, n.CID)
		c.Kick()
		s.Fail(nvme.StatusDataTransferErr)
		return
	}
	var dst, tmp []byte
	if realPayload(s) {
		// Copy straight into the covering pool element when the chunk
		// doesn't straddle one; bounce through a scratch buffer otherwise.
		dst = mempool.Span(s.Bufs, int(n.Offset), int(n.Length))
		if dst == nil {
			tmp = make([]byte, n.Length)
			dst = tmp
		}
	}
	copyStart := p.Now()
	slot.CopyOut(p, dst, int(n.Length))
	s.CopyTime += p.Now().Sub(copyStart)
	if realPayload(s) {
		if tmp != nil {
			mempool.Scatter(s.Bufs, int(n.Offset), tmp)
		}
		s.Staged = true
	}
	slot.TryRelease()
	if c.WriteProgress(s, int(n.Length), transit) {
		return
	}
	// Conservative flow control: acknowledge so the client sends the
	// next chunk.
	c.Post(&pdu.SHMRelease{CID: n.CID, Slot: n.Slot})
}

// sendReadOverSHM moves the payload through C2H slots: per-chunk slots
// and notifications for the chunked designs, one whole-I/O slot and a
// single notification under shared-memory flow control. If the region is
// revoked mid-stream — even while blocked waiting for a slot credit —
// the transfer fails over to the TCP data path: the adaptive selection
// of §4.1 extended from placement to failure.
func (w *oafConnWire) sendReadOverSHM(p *sim.Proc, region *shm.Region, s *session.CmdSlot, res target.ExecResult) {
	c := w.c
	cid, size := s.Cmd.CID, s.Size
	if !w.s.cfg.Design.Chunked() {
		// Shared-memory flow control: one whole-I/O slot, one
		// notification batched with the response.
		slot := region.Claim(p, shm.C2H)
		if !slot.Valid() {
			c.SendReadOverTCP(s, res)
			return
		}
		t0 := p.Now()
		slot.CopyIn(p, res.Data, size)
		copyTime := p.Now().Sub(t0)
		s.FreeBufs()
		c.Kick()
		s.Post(
			s.Notify(pdu.SHMNotify{CID: cid, Slot: slot.Index, Offset: 0, Length: uint32(size), Last: true}),
			s.Resp(res, copyTime))
		s.Release()
		return
	}
	// Chunked conservative transfer: one slot + notification per chunk,
	// stop-and-wait on the client's acknowledgement — the naive flow the
	// shared-memory flow control replaces (§4.4.2).
	ackQ := sim.NewQueue[struct{}](c.Target().Engine(), 0)
	if old, ok := w.readAcks[cid]; ok {
		// A retried read reused this CID while the abandoned attempt's
		// worker is still parked on its ack queue: close it so that worker
		// aborts and frees its buffers.
		old.Close()
	}
	w.readAcks[cid] = ackQ
	var copyTime time.Duration
	chunk := region.SlotSize
	for off := 0; off < size; off += chunk {
		n := chunk
		if size-off < n {
			n = size - off
		}
		slot := region.Claim(p, shm.C2H)
		if !slot.Valid() {
			// Region revoked mid-transfer: fail over, resending the
			// whole payload over TCP (the client restarts reassembly).
			if w.readAcks[cid] == ackQ {
				delete(w.readAcks, cid)
			}
			c.SendReadOverTCP(s, res)
			return
		}
		var src []byte
		if res.Data != nil {
			src = res.Data[off : off+n]
		}
		t0 := p.Now()
		slot.CopyIn(p, src, n)
		copyTime += p.Now().Sub(t0)
		last := off+n >= size
		nf := s.Notify(pdu.SHMNotify{CID: cid, Slot: slot.Index, Offset: uint64(off), Length: uint32(n), Last: last})
		if last {
			s.Post(nf, s.Resp(res, copyTime))
		} else {
			// The chunk's message holds the slot: its notify lives there.
			s.Post(nf)
			if _, ok := ackQ.Get(p); !ok {
				// Teardown, revocation, or a CID-reusing retry closed the
				// ack queue: abandon the transfer, reclaim the buffers.
				if w.readAcks[cid] == ackQ {
					delete(w.readAcks, cid)
				}
				s.FreeBufs()
				c.Kick()
				s.Release()
				return
			}
		}
	}
	if w.readAcks[cid] == ackQ {
		delete(w.readAcks, cid)
	}
	s.FreeBufs()
	c.Kick()
	s.Release()
}
