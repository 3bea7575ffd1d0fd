// Package transport defines the host-facing I/O interface shared by every
// NVMe-oF transport in this repository (TCP, RDMA, and the adaptive
// fabric) and every composition of them (striped groups, the replicated
// router): Queue, whose one submission primitive is stage-then-doorbell,
// and the Submit/SubmitBatch adapters over it. It also holds the helpers
// the transports build on: PDU batching onto the simulated network and
// per-request latency bookkeeping.
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

	// res is where the queue puts the completion (see Complete).
	res Result
}

// Complete stores r as io's result and resolves fut with a pointer to it,
// so completing an I/O allocates nothing. The result lives in io: the
// caller owns io until it has consumed the result, and submits it again
// (or to a second queue) only after that.
func (io *IO) Complete(fut *sim.Future[*Result], r Result) {
	io.res = r
	fut.Resolve(&io.res)
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

// Queue is one host-side I/O queue pair bound to a transport connection,
// or a composition of them (StripedQueue, the replicated cluster router).
// There is one way in: stage commands, then ring the doorbell. Submit and
// SubmitBatch below are the future-allocating adapters over that pair.
type Queue interface {
	// SubmitInto stages io to complete into the caller-owned, unresolved
	// fut WITHOUT ringing the doorbell; an I/O that cannot be admitted
	// resolves fut at once with a typed error. A connection stages without
	// yielding; a composition may submit what it cannot stage (a
	// replicated write) right away, on p.
	SubmitInto(p *sim.Proc, io *IO, fut *sim.Future[*Result])
	// RingDoorbell submits everything staged since the previous doorbell:
	// p pays payload staging for the train and one submit-CPU charge, then
	// the commands become visible to the queue's reactor, which is woken
	// once. With nothing staged it does nothing and costs nothing.
	RingDoorbell(p *sim.Proc)
	// Close tears the queue down; outstanding requests complete first.
	Close()
}

// Submit stages one I/O on q and rings the doorbell: the future-based
// form of the submission primitive. p pays staging and submit CPU.
func Submit(p *sim.Proc, q Queue, io *IO) *sim.Future[*Result] {
	fut := sim.NewFuture[*Result](p.Engine())
	q.SubmitInto(p, io, fut)
	q.RingDoorbell(p)
	return fut
}

// SubmitBatch stages a train of I/Os on q and rings the doorbell once, so
// the queue's reactor can coalesce the train into batch capsules. The
// futures align with ios and are appended to into[:0] (a caller that
// submits train after train passes the previous result back as scratch).
func SubmitBatch(p *sim.Proc, q Queue, ios []*IO, into []*sim.Future[*Result]) []*sim.Future[*Result] {
	futs := into[:0]
	for _, io := range ios {
		fut := sim.NewFuture[*Result](p.Engine())
		q.SubmitInto(p, io, fut)
		futs = append(futs, fut)
	}
	q.RingDoorbell(p)
	return futs
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
	pd.IO.Complete(pd.Fut, Result{
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

// DecodeAll parses every PDU in a received message into the connection's
// decoder: the PDUs are valid until that decoder's next DecodeAll. A
// decoded H2CData/C2HData payload borrows msg's buffer and is valid until
// msg.Release: a consumer copies what it keeps (into the host's read
// buffer, the target's pool elements) before the message goes back.
func DecodeAll(msg *netsim.Message, dec *pdu.Decoder) ([]pdu.PDU, error) {
	return dec.DecodeAll(msg.Data)
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
