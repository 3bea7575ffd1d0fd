// Package transport defines the host-facing I/O interface shared by every
// NVMe-oF transport in this repository (TCP, RDMA, and the adaptive
// fabric), together with the helpers they build on: PDU batching onto the
// simulated network and per-request latency bookkeeping.
package transport

import (
	"time"

	"nvmeoaf/internal/netsim"
	"nvmeoaf/internal/nvme"
	"nvmeoaf/internal/pdu"
	"nvmeoaf/internal/sim"
)

// BlockSize is the logical block size used by all namespaces in this
// repository.
const BlockSize = 512

// AdminFlag marks a command capsule as belonging to the admin queue. Real
// NVMe separates admin and I/O submission queues; our fabrics multiplex
// both on one connection and discriminate with this flag bit, so admin
// opcodes (e.g. Get Log Page = 0x02) never collide with I/O opcodes
// (Read = 0x02).
const AdminFlag uint8 = 0x40

// IO is one application-level I/O request against a namespace.
type IO struct {
	// Write selects the direction; false means read.
	Write bool
	// NSID is the target namespace (defaults to 1 when zero).
	NSID uint32
	// Offset is the byte offset; must be a multiple of BlockSize.
	Offset int64
	// Size is the byte count; must be a positive multiple of BlockSize.
	Size int
	// Data optionally carries a real write payload (or receives real read
	// payload). Nil payloads are modeled: timing is charged, bytes are
	// not moved.
	Data []byte
	// NoFill suppresses the client-side payload-generation cost for
	// writes (used when the caller already produced the data, e.g. the
	// zero-copy path fills the shared buffer itself).
	NoFill bool
	// Flush issues an NVMe flush instead of a read/write: no offset,
	// size, or payload, and the target completes it only once every
	// write it previously acknowledged has reached durable media (the
	// barrier a write-back target cache drains on).
	Flush bool
	// Admin, when nonzero, issues an admin command with this opcode
	// instead of an I/O read/write; CDW10 carries the command dword
	// (e.g. the identify CNS value). The response data arrives in Data.
	Admin uint8
	// CDW10 is the admin command's dword 10.
	CDW10 uint32
	// Tenant attributes this I/O to a named tenant for QoS admission and
	// per-tenant telemetry, overriding the queue's configured tenant.
	// Host-side only: identity crosses the wire per-connection (in the
	// Fabrics Connect hostNQN), never per-command, so an empty tenant
	// leaves the wire byte-identical.
	Tenant string
	// QoSExempt skips token-bucket admission for this I/O while keeping
	// tenant attribution (used by replica fan-out so a quorum write
	// debits one tenant budget once, not once per replica).
	QoSExempt bool
}

// Nsid returns the effective namespace ID.
func (io *IO) Nsid() uint32 {
	if io.NSID == 0 {
		return 1
	}
	return io.NSID
}

// Result is the completion of one IO.
type Result struct {
	Status nvme.Status
	// Data is the read payload when real bytes were moved.
	Data []byte
	// Latency is the end-to-end time from Submit to completion.
	Latency time.Duration
	// IOTime, CommTime, OtherTime decompose Latency as in the paper's
	// Figures 3 and 12: device time, fabric transit time, and the rest
	// (preparation and processing, including queueing at the client).
	IOTime, CommTime, OtherTime time.Duration
}

// Err returns the status as an error (nil on success).
func (r *Result) Err() error { return r.Status.Error() }

// Queue is one host-side I/O queue pair bound to a transport connection.
// Submit never blocks the caller beyond CPU accounting; completion is
// delivered through the returned future.
type Queue interface {
	// Submit enqueues an I/O. The returned future resolves with the
	// request's result. p is the submitting process (pays submit CPU).
	Submit(p *sim.Proc, io *IO) *sim.Future[*Result]
	// Close tears the queue down; outstanding requests complete first.
	Close()
}

// BatchQueue is implemented by queues that additionally support
// doorbell-batched submission: SubmitBatch stages and enqueues a train
// of I/Os with one submit-CPU charge and one reactor kick, and the
// queue's reactor coalesces the train into batch capsules on the wire
// (when the transport's BatchSize permits). The returned futures align
// with ios; completion semantics match Submit exactly. The slice itself
// may be the queue's scratch: it is valid until the next SubmitBatch on
// this queue, so a caller that keeps futures longer copies them out.
type BatchQueue interface {
	Queue
	SubmitBatch(p *sim.Proc, ios []*IO) []*sim.Future[*Result]
}

// RingSubmitter is implemented by queues that additionally support
// ring-native submission: the CALLER owns the completion future (a ring
// recycles one per slot instead of allocating one per op) and rings the
// doorbell once per staged train, so steady-state submission costs no
// allocation and no per-op reactor wakeup. Queues without it (striped
// groups, the replicated router) are still ring-drivable through
// Submit/SubmitBatch, just not allocation-free.
type RingSubmitter interface {
	Queue
	// SubmitInto stages io to complete into fut WITHOUT ringing the
	// doorbell. fut must be unresolved; on admission failure it resolves
	// immediately with a typed error. Completion semantics match Submit.
	SubmitInto(p *sim.Proc, io *IO, fut *sim.Future[*Result])
	// RingDoorbell charges one submit-CPU for everything staged since
	// the previous doorbell and wakes the queue's reactor once.
	RingDoorbell(p *sim.Proc)
}

// Pending tracks one in-flight request on the client side.
type Pending struct {
	IO       *IO
	Fut      *sim.Future[*Result]
	CID      uint16
	SubmitAt sim.Time
	// Comm accumulates client-observed fabric transit.
	Comm time.Duration
	// Received counts payload bytes that have arrived (reads).
	Received int
	// Sent counts payload bytes transmitted (writes).
	Sent int
}

// Finish resolves the pending request using the target-reported timing in
// the response capsule.
func (pd *Pending) Finish(now sim.Time, resp *pdu.CapsuleResp, data []byte) {
	total := now.Sub(pd.SubmitAt)
	ioTime := time.Duration(resp.IOTimeNs)
	comm := pd.Comm + time.Duration(resp.TgtCommNs)
	other := total - ioTime - comm
	if other < 0 {
		other = 0
	}
	pd.Fut.Resolve(&Result{
		Status:    resp.Rsp.Status,
		Data:      data,
		Latency:   total,
		IOTime:    ioTime,
		CommTime:  comm,
		OtherTime: other,
	})
}

// SendPDUs encodes the given PDUs back-to-back into a single network
// message (TCP coalescing) and transmits it. The message's wire size
// includes virtual payload lengths.
func SendPDUs(p *sim.Proc, ep *netsim.Endpoint, pdus ...pdu.PDU) {
	msg := ep.NewMessage()
	for _, q := range pdus {
		msg.Data = q.Encode(msg.Data)
		msg.Wire += q.WireLen()
	}
	ep.Send(p, msg)
}

// DecodeAll parses every PDU in a received message, appending to into[:0]
// (the connection's scratch, valid until its next DecodeAll). Decoded PDUs
// own copies of their payloads, so the caller may Release msg afterwards.
func DecodeAll(msg *netsim.Message, into []pdu.PDU) ([]pdu.PDU, error) {
	out := into[:0]
	buf := msg.Data
	for len(buf) > 0 {
		p, n, err := pdu.Decode(buf)
		if err != nil {
			return nil, err
		}
		out = append(out, p)
		buf = buf[n:]
	}
	return out, nil
}

// Chunks returns the number of chunk-sized pieces needed for size bytes.
func Chunks(size, chunk int) int {
	if chunk <= 0 {
		return 1
	}
	return (size + chunk - 1) / chunk
}

// ChunkSizes iterates the sizes of each piece when splitting size bytes at
// chunk granularity.
func ChunkSizes(size, chunk int, fn func(off, n int)) {
	if chunk <= 0 || size <= chunk {
		fn(0, size)
		return
	}
	for off := 0; off < size; off += chunk {
		n := chunk
		if size-off < n {
			n = size - off
		}
		fn(off, n)
	}
}
