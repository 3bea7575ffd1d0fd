// Package session implements the fabric-agnostic NVMe-oF session
// engine: one host-side core (Host) and one target-side core (Target)
// shared by every transport binding. The engine owns the machinery that
// is identical across data paths — the QD-sized slot table that owns each
// CID, attempt (Ticket) and deadline behind one timer per host (slots.go),
// queue-depth accounting, retries/backoff, keep-alive,
// batch-train assembly, completion reaping, connection lifecycle, the
// KATO watchdog, bounded buffer-wait shedding, and telemetry emission —
// while the transports (internal/core, for NVMe/TCP and NVMe-oAF, and
// internal/rdma) implement only the small Wire interfaces that differ per path:
// handshake contents, payload staging, capsule transmission, and the
// path-specific PDUs (R2T streaming, shared-memory notify/release,
// direct placement). What a caller says about a connection on any fabric
// is declared here once — ConnOptions for a host queue, ServeOptions for a
// served endpoint — and embedded by the engine's and every binding's
// config. See DESIGN.md §5g for the layering contract.
package session

import (
	"strings"
	"sync/atomic"
	"time"

	"nvmeoaf/internal/pdu"
	"nvmeoaf/internal/shm"
	"nvmeoaf/internal/sim"
	"nvmeoaf/internal/telemetry"
	"nvmeoaf/internal/transport"
)

// Shared wire constants. These live here and only here; the grep-guard
// test in dedup_test.go fails if a transport re-declares one.
const (
	// CmdFlagSHMSlot marks a command capsule whose PRP1 carries a
	// shared-memory slot index holding the write payload (the
	// in-capsule-style flow of the shared-memory flow-control
	// optimization, §4.4.2).
	CmdFlagSHMSlot = 0x01

	// PollMissCPU is the busy-poll expiry cost (syscall return + re-arm).
	PollMissCPU = 8 * time.Microsecond

	// DefaultHostNQN identifies the host in every Fabrics Connect.
	DefaultHostNQN = "nqn.2014-08.org.nvmexpress:uuid:sim-host"

	// ConnectCID is the reserved CID of the Fabrics Connect command; it
	// never collides with I/O CIDs (queue depths are far smaller).
	ConnectCID = 0xFFFF
)

// ChunkKnob is the live host-side chunk size of a binding that streams
// write payload in chunks over the TCP channel. It is atomic because the
// tuning controller or an operator goroutine adjusts it mid-run; the
// binding's wire reads it and its client (which embeds it) exposes it.
type ChunkKnob struct{ n atomic.Int64 }

// NewChunkKnob starts the knob at the configured chunk size.
func NewChunkKnob(n int) *ChunkKnob {
	k := &ChunkKnob{}
	k.n.Store(int64(n))
	return k
}

// SetChunkSize adjusts the chunk size live (block aligned, at least one
// block). Sizes below the negotiated MaxH2CData take effect on the next
// R2T grant; larger values are staged — they apply up to the negotiated
// ceiling now and fully after the next (re)negotiation, the honest
// treatment of a knob whose target half is immutable per connection.
func (k *ChunkKnob) SetChunkSize(n int) {
	if n < transport.BlockSize {
		n = transport.BlockSize
	}
	n -= n % transport.BlockSize
	k.n.Store(int64(n))
}

// LiveChunkSize returns the knob (which may exceed the per-connection
// negotiated ceiling; see SetChunkSize).
func (k *ChunkKnob) LiveChunkSize() int { return int(k.n.Load()) }

// Chunk returns the effective chunk size: the knob, capped by the
// MaxH2CData the target negotiated in icresp.
func (k *ChunkKnob) Chunk(icresp *pdu.ICResp) int {
	c := k.LiveChunkSize()
	if icresp != nil && icresp.MaxH2CData > 0 && int(icresp.MaxH2CData) < c {
		return int(icresp.MaxH2CData)
	}
	return c
}

// Pending tracks one in-flight command on the host side. It embeds the
// transport-level pending record and adds the recovery state the engine
// maintains plus the attempt's claimed shared-memory slot. Which attempt
// this is and its deadline are the host's slot table's to know.
type Pending struct {
	transport.Pending
	// WNext and WEnd track chunked-write progress for conservative
	// stop-and-wait flows (one chunk per target acknowledgement).
	WNext, WEnd int
	// Attempts counts retries so far; retried commands pin the plain
	// wire data path.
	Attempts int
	// DataLost marks payload that went missing mid-transfer (revoked
	// region); the response alone cannot complete the command.
	DataLost bool
	// Slot is the H2C shared-memory slot the attempt's write payload was
	// staged in (the zero Slot when there is none). The engine clears it
	// on recycle and asks the wire to release it on retry.
	Slot shm.Slot
	// Next links a train staged by SubmitInto until its doorbell publishes
	// it; a wire's StageSubmit walks it.
	Next *Pending
	// qosParkAt records when QoS admission parked this command (0 when it
	// was never parked); the reactor uses it to attribute token-wait time.
	qosParkAt sim.Time
}

// Window returns the caller's buffer from off on, where a payload PDU says
// its bytes belong. off comes from the wire: ok is false when it lies beyond
// the buffer (a late PDU that reached the CID's next owner) and the payload
// must be dropped. A modelled payload has no buffer: the empty window.
func (pend *Pending) Window(off uint64) (dst []byte, ok bool) {
	buf := pend.IO.Data
	if buf == nil {
		return nil, true
	}
	if off > uint64(len(buf)) {
		return nil, false
	}
	return buf[off:], true
}

// tenantSep joins the host NQN and the tenant name inside the Fabrics
// Connect hostNQN field. Identity therefore crosses the wire once per
// connection inside an already fixed-width field: with no tenant
// configured the encoded bytes are identical to an untenanted build.
const tenantSep = ",tenant="

// TenantHostNQN encodes a tenant into a host NQN for Connect data.
func TenantHostNQN(hostNQN, tenant string) string {
	if tenant == "" {
		return hostNQN
	}
	return hostNQN + tenantSep + tenant
}

// SplitTenantHostNQN recovers the bare host NQN and the tenant name from
// a Connect-data hostNQN (tenant is empty when none was encoded).
func SplitTenantHostNQN(s string) (hostNQN, tenant string) {
	if i := strings.LastIndex(s, tenantSep); i >= 0 {
		return s[:i], s[i+len(tenantSep):]
	}
	return s, ""
}

// takePending pops a recycled Pending (or allocates one) and re-arms it
// for a fresh command.
func (h *Host) takePending(io *transport.IO, fut *sim.Future[*transport.Result]) *Pending {
	if io.Admin == 0 {
		h.tview(io).Inc(telemetry.TCtrSubmits)
	}
	if n := len(h.freePends); n > 0 {
		pend := h.freePends[n-1]
		h.freePends[n-1] = nil
		h.freePends = h.freePends[:n-1]
		*pend = Pending{Pending: transport.Pending{IO: io, Fut: fut}}
		return pend
	}
	return &Pending{Pending: transport.Pending{IO: io, Fut: fut}}
}

// recyclePending returns a finished pending op to the freelist. Only fully
// resolved commands (future resolved, CID freed: no Ticket is live) may be.
func (h *Host) recyclePending(pend *Pending) {
	if len(h.freePends) >= cap(h.freePends) && len(h.freePends) >= 4*h.cfg.QueueDepth {
		return // bound the freelist; excess pends fall to the GC
	}
	pend.IO = nil
	pend.Fut = nil
	pend.Slot = shm.Slot{}
	h.freePends = append(h.freePends, pend)
}
