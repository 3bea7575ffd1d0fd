// Package rdma implements the NVMe/RDMA baseline transport: kernel-bypass
// queue pairs with direct data placement (no R2T round trip, no
// application-level chunking, near-zero per-byte host cost) and a memory-
// registration cache whose misses inject the large latencies behind
// RDMA's short-run tail behaviour (§5.4, Fig 13 of the paper).
//
// The paper evaluates NVMe/RDMA over 56 Gb IB FDR (SR-IOV) and NVMe/RoCE
// over 100 GbE on bare metal; both are instances of this transport with
// different model.RDMAParams. The session machinery (CID table, reactor,
// deadlines, batching, keep-alive, KATO) lives in internal/session; this
// file is the thin RDMA wire binding, which therefore inherits doorbell
// batching, telemetry, per-command deadlines, and keep-alive from the
// engine.
//
// ClientConfig and ServerConfig embed session.ConnOptions/ServeOptions
// (documented there) and add only this binding's own knobs; builders
// reach Connect and NewServer through internal/dial.
package rdma

import (
	"math"
	"math/rand"
	"sort"
	"time"

	"nvmeoaf/internal/model"
	"nvmeoaf/internal/netsim"
	"nvmeoaf/internal/nvme"
	"nvmeoaf/internal/pdu"
	"nvmeoaf/internal/session"
	"nvmeoaf/internal/sim"
	"nvmeoaf/internal/target"
	"nvmeoaf/internal/telemetry"
	"nvmeoaf/internal/transport"
)

// LinkParams converts RDMA fabric parameters into link-model terms: the
// HCA moves payload bytes without host CPU, and completion-queue polling
// avoids interrupt wakeups.
func LinkParams(r model.RDMAParams) model.LinkParams {
	return model.LinkParams{
		Name:            r.Name,
		WireBytesPerSec: r.WireBytesPerSec,
		Propagation:     r.Propagation,
		PerMsgCPU:       r.PerOpCPU,
		PerByteCPUNanos: 0,
		WakeupPenalty:   0,
	}
}

// ClientConfig configures one NVMe/RDMA host queue pair.
type ClientConfig struct {
	session.ConnOptions
	Params model.RDMAParams
	// BatchSize > 1 coalesces queued submissions into one doorbell train
	// per message (0/1 = classic one-capsule-per-message wire).
	BatchSize int

	// RegCache enables the mechanistic fast path: the I/O buffer pool is
	// pre-registered with the HCA at connect time and every post goes
	// through the LRU MR cache (regcache.go) instead of the legacy
	// stochastic registration model. Steady-state pool and ring-arena
	// I/O never registers inline; misses happen only for unregistered
	// caller buffers and eviction churn.
	RegCache bool
	// Merge folds physically contiguous same-direction commands in a
	// doorbell train into one work request (RDMAbox adjacent-request
	// merging); completions are split back to member CIDs invisibly to
	// the session engine.
	Merge bool
	// DynDoorbell replaces the fixed BatchSize with an occupancy-driven
	// doorbell-train controller: the train grows while the submit queue
	// has backlog and shrinks toward 1 when it drains.
	DynDoorbell bool
}

// Client is the host side of one RDMA queue pair.
type Client struct {
	*session.Host
	wire *rdmaWire
}

// AllocBuffer implements the ring arena hook (internal/ring asserts for
// it on the wrapped queue): buffers handed to a Ring register with the
// HCA at ring creation, so steady-state ring I/O is a guaranteed
// registration-cache hit.
func (c *Client) AllocBuffer(size int) []byte {
	buf := make([]byte, size)
	if w := c.wire; w.cache != nil {
		w.cache.Preregister(regKey{ptr: &buf[0]}, int64(size))
		c.Telemetry().Add(telemetry.CtrRDMAPreregBytes, alignRegion(int64(size)))
	}
	return buf
}

// mergeMember records one command folded into a merged work request: the
// attempt (the CID may have a new owner by the time the completion comes
// back) and its share of the payload.
type mergeMember struct {
	session.Ticket
	size int
}

// mergeGroup is one merged work request awaiting its completion, keyed
// by the leader (lowest-offset member) CID.
type mergeGroup struct {
	members []mergeMember
	total   int
}

// rdmaWire is the direct-placement data path: writes carry their whole
// payload with the capsule (no R2T), reads come back as one RDMA write,
// and posting a work request may stall on a memory-registration miss.
type rdmaWire struct {
	h   *session.Host
	ep  *netsim.Endpoint
	cfg *ClientConfig
	rng *rand.Rand

	// Legacy stochastic-model shim: coldSeen models the
	// round(evictMissScale x MemRegWarmOps) distinct pool regions that
	// have not yet been registered this run (see postDelay).
	coldSeen []bool

	// Fast path (RegCache): the mechanistic MR cache; nil when the
	// legacy model is active.
	cache *regCache

	// Merge state: in-flight merged work requests by leader CID, plus
	// reactor-owned scratch for rebuilding the train and fanning the
	// merged completion back out.
	groups      map[uint16]*mergeGroup
	mergeIdx    []int
	mergeDead   []bool
	respScratch pdu.CapsuleResp

	// Dynamic doorbell controller state.
	dynTrain int
}

// poolRegion keys the connect-time pre-registered I/O buffer pool in
// the MR cache; poolBufBytes is the modeled per-queue-entry pool buffer
// (large enough for a max-size I/O).
var poolRegion = regKey{id: 1}

const poolBufBytes = 128 << 10

// maxTrain caps the dynamic doorbell train.
const maxTrain = 64

// Connect starts a client on ep (connection setup over the RDMA CM is
// modeled by the ICReq/ICResp exchange).
func Connect(p *sim.Proc, ep *netsim.Endpoint, cfg ClientConfig) (*Client, error) {
	e := p.Engine()
	w := &rdmaWire{ep: ep, cfg: &cfg, rng: e.Rand("rdma/" + cfg.Params.Name), dynTrain: 1}
	if cfg.RegCache {
		w.cache = newRegCache(regCacheCapacity(&cfg))
	} else if k := int(math.Round(evictMissScale * cfg.Params.MemRegWarmOps)); k > 0 {
		w.coldSeen = make([]bool, k)
	}
	if cfg.Merge {
		w.groups = map[uint16]*mergeGroup{}
	}
	h := session.NewHost(e, ep, session.HostConfig{
		ConnOptions: cfg.ConnOptions,
		Label:       "rdma",
		Host:        model.DefaultHost(),
		BatchSize:   cfg.BatchSize,
		// InterruptWakeups stays off — completion-queue polling: parking
		// never pays the interrupt wakeup penalty (LinkParams zeroes it
		// anyway).
	}, w)
	w.h = h
	c := &Client{Host: h, wire: w}
	if err := h.Handshake(p); err != nil {
		return nil, err
	}
	if w.cache != nil {
		// Pre-register the whole I/O buffer pool during connection setup:
		// steady-state pool I/O never registers inline (RDMAbox).
		poolBytes := int64(h.QueueDepth()) * poolBufBytes
		w.cache.Preregister(poolRegion, poolBytes)
		h.Telemetry().Add(telemetry.CtrRDMAPreregBytes, poolBytes)
	}
	h.Telemetry().Trace(int64(p.Now()), telemetry.EvPathSelected, 0, "rdma", cfg.Params.Name)
	h.Start()
	return c, nil
}

// regCacheCapacity resolves the MR-cache byte cap: the fabric parameter,
// else 256 MiB.
func regCacheCapacity(cfg *ClientConfig) int64 {
	if cfg.Params.RegCacheBytes > 0 {
		return cfg.Params.RegCacheBytes
	}
	return 256 << 20
}

func (w *rdmaWire) BuildICReq(reconnect bool) *pdu.ICReq { return &pdu.ICReq{PFV: 0} }

func (w *rdmaWire) AdoptICResp(resp *pdu.ICResp) {}

func (w *rdmaWire) Admit(io *transport.IO) nvme.Status { return nvme.StatusSuccess }

// StageSubmit charges payload generation for writes on the ringing
// process.
func (w *rdmaWire) StageSubmit(p *sim.Proc, train *session.Pending) { w.h.ChargeFill(p, train) }

// MakeIOEntry builds the work request: writes carry their full payload
// with the capsule — the target's HCA places the data directly into the
// reserved buffer (no R2T exchange).
func (w *rdmaWire) MakeIOEntry(pend *session.Pending) pdu.BatchEntry {
	io := pend.IO
	w.h.Telemetry().Observe(telemetry.HistIOSize, int64(io.Size))
	slba := uint64(io.Offset / transport.BlockSize)
	nlb := uint32(io.Size / transport.BlockSize)
	if !io.Write {
		return pdu.BatchEntry{Cmd: nvme.NewRead(pend.CID, io.Nsid(), slba, nlb)}
	}
	e := pdu.BatchEntry{Cmd: nvme.NewWrite(pend.CID, io.Nsid(), slba, nlb)}
	if io.Data != nil {
		e.Data = io.Data
	} else {
		e.VirtualLen = io.Size
	}
	return e
}

// Transmit posts one work request through the engine's capsule scratch.
// I/O commands may stall on a memory-registration miss; admin and flush
// commands ride the send queue directly (their buffers were registered at
// connect time).
func (w *rdmaWire) Transmit(p *sim.Proc, e *pdu.BatchEntry) {
	var delay time.Duration
	if e.Cmd.Flags&transport.AdminFlag == 0 && e.Cmd.Opcode != nvme.OpFlush {
		delay = w.postDelay(e)
	}
	if delay <= 0 {
		w.h.SendCapsule(p, e)
		return
	}
	// Registration runs on a kernel helper: only this command waits; the
	// reactor keeps serving the queue. If its deadline reaps the command
	// meanwhile, the CID may have a new owner by the time the registration
	// is done: the capsule must not go out under it. The helper posts a
	// capsule of its own, since the engine reuses its scratch before then.
	capsule := &pdu.CapsuleCmd{Cmd: e.Cmd, Data: e.Data, VirtualLen: e.VirtualLen}
	ep := w.ep
	tk, _ := w.h.TicketOf(e.Cmd.CID)
	w.h.Engine().Go("rdma-memreg", func(q *sim.Proc) {
		q.Sleep(delay)
		if _, ok := w.h.Live(tk); !ok {
			w.h.NoteLate()
			return
		}
		transport.SendPDUs(q, ep, capsule)
	})
}

// TransmitTrain posts a doorbell-coalesced train as one message: one
// doorbell for the whole train. With Merge on, physically contiguous
// same-direction entries fold into single work requests first. With the
// MR cache, each work request's buffer region is touched (a miss delays
// the train by its registration); the legacy model consults its miss
// distribution once per train.
func (w *rdmaWire) TransmitTrain(p *sim.Proc, b *pdu.CmdBatch) {
	w.h.Telemetry().Add(telemetry.CtrRDMADoorbellsSaved, int64(len(b.Entries)-1))
	if w.cfg.Merge {
		w.mergeTrain(b)
	}
	var delay time.Duration
	if w.cache != nil {
		for i := range b.Entries {
			delay += w.postDelay(&b.Entries[i])
		}
	} else {
		delay = w.postDelay(nil)
	}
	if delay > 0 {
		// The engine reuses its batch scratch: copy the entries before
		// handing them to the delayed helper, and note who owns each CID
		// now — entries whose command was reaped during the delay are
		// dropped from the train (see Transmit).
		cp := &pdu.CmdBatch{Entries: append([]pdu.BatchEntry(nil), b.Entries...)}
		owners := make([]session.Ticket, len(cp.Entries))
		for i := range cp.Entries {
			owners[i], _ = w.h.TicketOf(cp.Entries[i].Cmd.CID)
		}
		ep := w.ep
		w.h.Engine().Go("rdma-memreg", func(q *sim.Proc) {
			q.Sleep(delay)
			live := cp.Entries[:0]
			for i, tk := range owners {
				if _, ok := w.h.Live(tk); ok {
					live = append(live, cp.Entries[i])
				} else {
					w.h.NoteLate()
				}
			}
			if cp.Entries = live; len(live) > 0 {
				transport.SendPDUs(q, ep, cp)
			}
		})
		return
	}
	transport.SendPDUs(p, w.ep, b)
}

// TrainSize implements session.TrainSizer: dynamic doorbell coalescing.
// The train doubles while the submit queue keeps at least twice the
// current train queued (amortizing per-doorbell cost under backlog) and
// halves when occupancy falls to half the train (protecting latency on
// drain). Deterministic under the sim clock; 0 defers to BatchSize.
func (w *rdmaWire) TrainSize(queued int) int {
	if !w.cfg.DynDoorbell {
		return 0
	}
	for queued >= 2*w.dynTrain && w.dynTrain < maxTrain {
		w.dynTrain *= 2
	}
	for queued <= w.dynTrain/2 && w.dynTrain > 1 {
		w.dynTrain /= 2
	}
	d := w.dynTrain
	if queued > 0 && d > queued {
		d = queued
	}
	return d
}

// PollBudget is 0: the engine's kick/park loop already models CQ polling
// without wakeup charges (InterruptWakeups off).
func (w *rdmaWire) PollBudget() time.Duration { return 0 }

func (w *rdmaWire) PreReactor(p *sim.Proc) {}

func (w *rdmaWire) HandlePDU(p *sim.Proc, u pdu.PDU, transit time.Duration) bool {
	return false
}

func (w *rdmaWire) ReleaseAttempt(pend *session.Pending) {}

// postDelay models the HCA memory-registration check for one post.
//
// Fast path (cache non-nil): the work request's buffer region is looked
// up in the mechanistic MR cache — the pre-registered pool for pooled /
// virtual payloads, the buffer base address for caller buffers. A hit
// costs nothing; a miss charges one region registration (page pinning +
// HCA table update) and may evict LRU regions under capacity pressure.
//
// Legacy shim (cache nil): the stochastic model the fast path replaces,
// recast mechanistically so its statistics survive. The run starts with
// K = round(evictMissScale x MemRegWarmOps) cold pool regions; each post
// picks a region with probability evictMissScale and the first touch of
// each region is a miss, so the per-post miss rate decays as
// evictMissScale x exp(-evictMissScale x posts / K) — the same decay
// constant (~MemRegWarmOps) the old exponential coin flip had, and the
// same expected total (~K) misses. MemRegFloorProb models steady-state
// region churn (pool growth, fragmentation): a forced re-registration
// with that probability per post. Short runs carry a heavy registration
// tail that 3-4x longer runs dilute below p99.9/p99.99 — the paper's
// §5.4 observation (Fig 13) — and the figure suite pins that shape.
func (w *rdmaWire) postDelay(e *pdu.BatchEntry) time.Duration {
	if w.cache != nil {
		return w.touchEntry(e)
	}
	prm := w.cfg.Params
	if prm.MemRegFloorProb > 0 && w.rng.Float64() < prm.MemRegFloorProb {
		return w.missDelay() // churned region: forced re-registration
	}
	if k := len(w.coldSeen); k > 0 && w.rng.Float64() < evictMissScale {
		if i := w.rng.Intn(k); !w.coldSeen[i] {
			w.coldSeen[i] = true
			return w.missDelay()
		}
	}
	w.h.Telemetry().Inc(telemetry.CtrRDMARegHits)
	return 0
}

// touchEntry resolves the buffer region behind one work request and
// touches it in the MR cache: virtual / pooled payloads hit the pinned
// pool region; real caller buffers key by base address (ring-arena
// buffers were pre-registered by AllocBuffer and always hit).
func (w *rdmaWire) touchEntry(e *pdu.BatchEntry) time.Duration {
	if e.Cmd.Flags&transport.AdminFlag != 0 || e.Cmd.Opcode == nvme.OpFlush {
		return 0
	}
	key := poolRegion
	var bytes int64
	if pend, ok := w.h.LookupPending(e.Cmd.CID); ok && pend.IO.Data != nil {
		key = regKey{ptr: &pend.IO.Data[0]}
		bytes = int64(len(pend.IO.Data))
	}
	tel := w.h.Telemetry()
	hit, evicted := w.cache.Touch(key, bytes)
	if hit {
		tel.Inc(telemetry.CtrRDMARegHits)
		return 0
	}
	tel.Add(telemetry.CtrRDMARegEvictions, int64(evicted))
	return w.missDelay()
}

// missDelay charges one region registration, with the same jitter the
// legacy model used.
func (w *rdmaWire) missDelay() time.Duration {
	w.h.Telemetry().Inc(telemetry.CtrRDMARegMisses)
	return time.Duration(float64(w.cfg.Params.MemRegCost) * (0.7 + 0.6*w.rng.Float64()))
}

// evictMissScale is the initial per-op registration-miss probability.
const evictMissScale = 0.007

// maxMergedBlocks caps a merged work request at the NVMe NLB field's
// range (CDW12 holds a 0's-based 16-bit block count).
const maxMergedBlocks = 65536

// mergeable reports whether a train entry may fold into a merged work
// request: IO reads always (the completion payload splits back by
// offset), IO writes only with modeled (virtual) payloads — merging
// real write payloads would need one contiguous wire buffer.
func mergeable(e *pdu.BatchEntry) bool {
	if e.Cmd.Flags&transport.AdminFlag != 0 {
		return false
	}
	switch e.Cmd.Opcode {
	case nvme.OpRead:
		return true
	case nvme.OpWrite:
		return e.Data == nil && e.VirtualLen > 0
	}
	return false
}

// mergeTrain folds physically contiguous same-direction commands in the
// train into single work requests (RDMAbox adjacent-request merging):
// an offset-sorted scan per (opcode, NSID) finds runs whose LBA ranges
// abut, each run posts as one work request carrying the leader
// (lowest-offset) CID and the summed block count, and a mergeGroup
// remembers the members so InterceptData/InterceptResp can split the
// completion back per CID — invisible to the session engine.
func (w *rdmaWire) mergeTrain(b *pdu.CmdBatch) {
	entries := b.Entries
	idx := w.mergeIdx[:0]
	for i := range entries {
		if mergeable(&entries[i]) {
			idx = append(idx, i)
		}
	}
	w.mergeIdx = idx
	if len(idx) < 2 {
		return
	}
	sort.Slice(idx, func(a, b int) bool {
		ea, eb := &entries[idx[a]], &entries[idx[b]]
		if ea.Cmd.Opcode != eb.Cmd.Opcode {
			return ea.Cmd.Opcode < eb.Cmd.Opcode
		}
		if ea.Cmd.NSID != eb.Cmd.NSID {
			return ea.Cmd.NSID < eb.Cmd.NSID
		}
		return ea.Cmd.SLBA() < eb.Cmd.SLBA()
	})
	dead := w.mergeDead[:0]
	for range entries {
		dead = append(dead, false)
	}
	w.mergeDead = dead
	folded := 0
	for s := 0; s < len(idx); {
		run := s + 1
		lead := &entries[idx[s]]
		end := lead.Cmd.SLBA() + uint64(lead.Cmd.NLB())
		blocks := int(lead.Cmd.NLB())
		for run < len(idx) {
			e := &entries[idx[run]]
			if e.Cmd.Opcode != lead.Cmd.Opcode || e.Cmd.NSID != lead.Cmd.NSID ||
				e.Cmd.SLBA() != end || blocks+int(e.Cmd.NLB()) > maxMergedBlocks {
				break
			}
			end += uint64(e.Cmd.NLB())
			blocks += int(e.Cmd.NLB())
			run++
		}
		if run-s >= 2 {
			folded += w.foldRun(entries, idx[s:run], blocks)
		}
		s = run
	}
	if folded == 0 {
		return
	}
	w.h.Telemetry().Add(telemetry.CtrRDMAMergedOps, int64(folded))
	out := entries[:0]
	for i := range entries {
		if !w.mergeDead[i] {
			out = append(out, entries[i])
		}
	}
	b.Entries = out
}

// foldRun rewrites the run's leader entry into the merged work request
// and registers the merge group. Returns the number of entries folded
// away (0 when a member cannot be resolved and the run is left alone).
func (w *rdmaWire) foldRun(entries []pdu.BatchEntry, run []int, blocks int) int {
	lead := &entries[run[0]]
	g := &mergeGroup{members: make([]mergeMember, 0, len(run))}
	for _, i := range run {
		e := &entries[i]
		tk, ok := w.h.TicketOf(e.Cmd.CID)
		if !ok {
			return 0
		}
		size := int(e.Cmd.NLB()) * transport.BlockSize
		g.members = append(g.members, mergeMember{Ticket: tk, size: size})
		g.total += size
	}
	lead.Cmd.CDW12 = uint32(blocks - 1)
	if lead.Cmd.Opcode == nvme.OpWrite {
		lead.VirtualLen = g.total
	}
	for _, i := range run[1:] {
		w.mergeDead[i] = true
	}
	w.groups[lead.Cmd.CID] = g
	return len(run) - 1
}

// liveGroup resolves a merge group by leader CID, discarding it when the
// leader pending is stale (the CID was reaped and reused: the incoming
// PDU belongs to a newer command, so the engine must handle it).
func (w *rdmaWire) liveGroup(cid uint16) *mergeGroup {
	g, ok := w.groups[cid]
	if !ok {
		return nil
	}
	if _, ok := w.h.Live(g.members[0].Ticket); !ok {
		delete(w.groups, cid)
		return nil
	}
	return g
}

// InterceptData splits a merged read's single RDMA write back across the
// member buffers by offset (members are stored in ascending LBA order,
// which is payload order).
func (w *rdmaWire) InterceptData(p *sim.Proc, d *pdu.Data, transit time.Duration) bool {
	g := w.liveGroup(d.CID)
	if g == nil {
		return false
	}
	off := 0
	for _, m := range g.members {
		if pend, ok := w.h.Live(m.Ticket); ok {
			if d.Payload != nil && pend.IO.Data != nil && off < len(d.Payload) {
				end := off + m.size
				if end > len(d.Payload) {
					end = len(d.Payload)
				}
				copy(pend.IO.Data, d.Payload[off:end])
			}
			pend.Received += m.size
			pend.Comm += transit
		} else {
			w.h.NoteLate()
		}
		transit = 0
		off += m.size
	}
	return true
}

// InterceptResp fans a merged work request's single completion back out
// to the member commands through the engine's normal completion path.
// Device time is split proportionally to member size; message transit
// and target-side overheads are attributed once.
func (w *rdmaWire) InterceptResp(p *sim.Proc, r *pdu.CapsuleResp, transit time.Duration) bool {
	g := w.liveGroup(r.Rsp.CID)
	if g == nil {
		return false
	}
	delete(w.groups, r.Rsp.CID)
	for i, m := range g.members {
		if _, ok := w.h.Live(m.Ticket); !ok {
			w.h.NoteLate()
			continue
		}
		w.respScratch = *r
		w.respScratch.Rsp.CID = m.CID
		w.respScratch.IOTimeNs = uint64(float64(r.IOTimeNs) * float64(m.size) / float64(g.total))
		if i > 0 {
			w.respScratch.TgtCommNs, w.respScratch.TgtOtherNs = 0, 0
		}
		w.h.DeliverResp(p, &w.respScratch, transit)
		transit = 0
	}
	return true
}

// ServerConfig configures the target side.
type ServerConfig struct {
	session.ServeOptions
	// BatchSize > 1 enables completion-reap coalescing on transmit.
	BatchSize int
}

// Server is the target-side RDMA transport: direct data placement into
// pre-registered buffers, so no buffer pool and no R2T machinery — the
// session engine drives connection lifecycle, dispatch, and teardown.
type Server struct {
	*session.Target
}

// NewServer creates the RDMA transport for tgt.
func NewServer(e *sim.Engine, tgt *target.Target, cfg ServerConfig) *Server {
	s := &Server{}
	s.Target = session.NewTarget(e, tgt, session.TargetConfig{
		ServeOptions: cfg.ServeOptions,
		Label:        "rdma",
		BatchSize:    cfg.BatchSize,
		// Nothing else is set — direct placement: no chunk pool, no
		// busy-poll budget, and CQ polling never charges interrupt wakeups.
	}, (*rdmaTargetWire)(s))
	return s
}

// rdmaTargetWire binds the engine's connections to direct data placement.
type rdmaTargetWire Server

func (s *rdmaTargetWire) NewConn(c *session.Conn) session.ConnWire {
	return &rdmaConnWire{c: c}
}

// rdmaConnWire is the per-connection RDMA wire: a bare CM-exchange
// handshake, reads returned as one RDMA write, writes executed straight
// from the capsule payload.
type rdmaConnWire struct {
	c *session.Conn
}

func (w *rdmaConnWire) OnICReq(req *pdu.ICReq) {
	w.c.Target().Telemetry().Inc(telemetry.CtrSrvTCPConns)
	w.c.Post(&pdu.ICResp{PFV: req.PFV})
}

func (w *rdmaConnWire) TrType() uint8 { return nvme.TrTypeRDMA }

func (w *rdmaConnWire) PreLoop() {}

// DispatchRead serves a read as one RDMA write of the whole payload
// (no pool, so one chunk) with the completion capsule behind it.
func (w *rdmaConnWire) DispatchRead(cmd nvme.Command, transit time.Duration) {
	w.c.StartRead(cmd, transit, nil)
}

func (w *rdmaConnWire) DispatchWrite(cap *pdu.CapsuleCmd, size int, transit time.Duration) {
	// The HCA already placed the payload: execute straight from the
	// capsule, no pool buffers, no R2T.
	w.c.ExecWrite(cap.Cmd, size, cap.Data, transit)
}

func (w *rdmaConnWire) HandlePDU(p *sim.Proc, u pdu.PDU, transit time.Duration) bool {
	return false
}

func (w *rdmaConnWire) Teardown() {}
