// Package ring is the io_uring-style fast path over a transport queue:
// a lock-less submission/completion ring pair plus a registered buffer
// arena, polled by the application instead of waking it per operation.
//
// The future-based adapters (transport.Submit) cost one future
// allocation, one result allocation, and one wakeup per I/O — fine at
// QD 8, the wall at QD 256. A Ring recycles everything: applications
// claim fixed-size buffers from the arena, describe I/O by writing
// fixed-size SQ entries, flush them with one doorbell per train, and reap
// completions in batches from the CQ. On the steady state nothing on the
// submit or reap path allocates (CI-gated via testing.AllocsPerRun), and
// the reactor is woken once per doorbell, not once per op.
//
// Ownership discipline (enforced by the arena bitmap): a buffer moves
// claim -> submit -> reap -> release. Between submit and reap it belongs
// to the transport; touching it there is a data race in real life and a
// stale read here. Release returns it to the arena for reuse.
//
// A ring drives any transport.Queue the same way: every entry of a train
// is staged into its slot's recycled future (SubmitInto), then the
// doorbell rings once. On a session-engine binding (core, tcp, rdma) the
// entries link straight onto the connection's staged train and drain
// through its batch-train reactor; a striped group forwards each entry,
// future and all, to the member owning its offset; the replicated router
// stages reads on the chosen replica and allocates only what replication
// itself needs (per-replica writes, failover state).
package ring

import (
	"time"

	"nvmeoaf/internal/nvme"
	"nvmeoaf/internal/sim"
	"nvmeoaf/internal/telemetry"
	"nvmeoaf/internal/transport"
)

// Config sizes a Ring.
type Config struct {
	// SQSize is the submission-ring capacity in entries, and the inflight
	// bound (default 64).
	SQSize int
	// CQSize is the completion-ring capacity (default 2x SQSize, minimum
	// SQSize). Submission throttles so CQ entries are never overwritten:
	// inflight + unreaped completions never exceed CQSize.
	CQSize int
	// Buffers is the registered-buffer count in the arena (default SQSize).
	Buffers int
	// BufSize is the bytes per registered buffer (default 128 KiB).
	BufSize int
	// Telemetry receives the ring.* metric group (nil = off).
	Telemetry *telemetry.Sink
	// Tenant stamps every ring submission with a tenant name for QoS
	// admission and per-tenant telemetry (empty = the queue's default).
	// Ring traffic drains through the session submit queue, so the
	// host-side QoS gate covers it like any other submission.
	Tenant string
}

func (c Config) withDefaults() Config {
	if c.SQSize <= 0 {
		c.SQSize = 64
	}
	if c.CQSize < c.SQSize {
		c.CQSize = 2 * c.SQSize
	}
	if c.Buffers <= 0 {
		c.Buffers = c.SQSize
	}
	if c.BufSize <= 0 {
		c.BufSize = 128 << 10
	}
	return c
}

// Buf is one registered buffer lent out by the arena. The zero Buf is
// invalid (no buffer attached), which a submission may use for ops that
// carry no payload.
type Buf struct {
	id int32 // arena index + 1; 0 = invalid
	b  []byte
}

// Bytes exposes the buffer contents (nil for the zero Buf).
func (b Buf) Bytes() []byte { return b.b }

// Valid reports whether b references an arena buffer.
func (b Buf) Valid() bool { return b.id != 0 }

// SQE is one fixed-size submission entry. Size bytes of Buf (from its
// start) are written for writes and filled for reads; UserData rides to
// the matching CQE untouched.
type SQE struct {
	Write    bool
	Flush    bool
	NSID     uint32
	Offset   int64
	Size     int
	Buf      Buf
	UserData uint64
}

// CQE is one fixed-size completion entry. Buf is the submission's buffer,
// back in the application's hands (release it when done). At is the
// virtual completion time — batched reaping would otherwise blur
// individual completion instants.
type CQE struct {
	UserData  uint64
	Status    nvme.Status
	Buf       Buf
	At        sim.Time
	Latency   time.Duration
	IOTime    time.Duration
	CommTime  time.Duration
	OtherTime time.Duration
}

// Err returns the completion status as an error (nil on success).
func (c *CQE) Err() error { return c.Status.Error() }

// slot is one inflight operation's recycled state: the IO descriptor,
// the completion future, the pre-bound completion callback (created
// once, never per-op), and a copy of the submitted entry so the CQE can
// carry UserData and the buffer back.
type slot struct {
	io  transport.IO
	fut *sim.Future[*transport.Result]
	cb  func(*transport.Result)
	sqe SQE
}

// Ring is one submission/completion ring pair over a transport queue.
// It is single-owner like an io_uring: exactly one process submits and
// reaps (lock-less by construction — the simulation's cooperative
// scheduling is the model's memory ordering).
type Ring struct {
	e   *sim.Engine
	q   transport.Queue
	tel *telemetry.Sink
	cfg Config

	sq             []SQE
	sqHead, sqTail int

	cq             []CQE
	cqHead, cqTail int
	cqReady        *sim.Signal

	slots     []slot
	freeSlots []int32
	inflight  int

	bufs     [][]byte
	freeBufs []int32
	claimed  []bool

	closed bool
}

// bufferAllocator lets a binding place the arena in its registered
// region (the adaptive fabric's core.Client allocates from the
// SHM-backed pool it registered at connect).
type bufferAllocator interface {
	AllocBuffer(size int) []byte
}

// New builds a ring over q. Buffers come from q's registered allocator
// when it has one (the zero-copy SHM binding), else from a private
// arena. The ring does not own q: Close detaches without closing it.
func New(e *sim.Engine, q transport.Queue, cfg Config) *Ring {
	cfg = cfg.withDefaults()
	r := &Ring{
		e:   e,
		q:   q,
		tel: cfg.Telemetry,
		cfg: cfg,

		sq:      make([]SQE, cfg.SQSize),
		cq:      make([]CQE, cfg.CQSize),
		cqReady: sim.NewSignal(e),

		slots:     make([]slot, cfg.SQSize),
		freeSlots: make([]int32, 0, cfg.SQSize),

		bufs:     make([][]byte, cfg.Buffers),
		freeBufs: make([]int32, 0, cfg.Buffers),
		claimed:  make([]bool, cfg.Buffers),
	}
	alloc, _ := q.(bufferAllocator)
	var arena []byte
	if alloc == nil {
		arena = make([]byte, cfg.Buffers*cfg.BufSize)
	}
	for i := 0; i < cfg.Buffers; i++ {
		if alloc != nil {
			r.bufs[i] = alloc.AllocBuffer(cfg.BufSize)
		} else {
			r.bufs[i] = arena[i*cfg.BufSize : (i+1)*cfg.BufSize : (i+1)*cfg.BufSize]
		}
		r.freeBufs = append(r.freeBufs, int32(i))
	}
	for i := cfg.SQSize - 1; i >= 0; i-- {
		si := int32(i)
		s := &r.slots[si]
		s.fut = sim.NewFuture[*transport.Result](e)
		s.cb = func(res *transport.Result) { r.complete(si, res) }
		r.freeSlots = append(r.freeSlots, si)
	}
	return r
}

// Queued returns the SQ entries pushed but not yet submitted.
func (r *Ring) Queued() int { return r.sqTail - r.sqHead }

// Inflight returns operations submitted but not yet completed.
func (r *Ring) Inflight() int { return r.inflight }

// Completed returns CQ entries awaiting reap.
func (r *Ring) Completed() int { return r.cqTail - r.cqHead }

// Claim lends one registered buffer out of the arena; ok is false (a
// counted stall) when every buffer is lent out — reap and release first.
func (r *Ring) Claim() (Buf, bool) {
	n := len(r.freeBufs)
	if n == 0 {
		r.tel.Inc(telemetry.CtrRingBufStalls)
		return Buf{}, false
	}
	id := r.freeBufs[n-1]
	r.freeBufs = r.freeBufs[:n-1]
	r.claimed[id] = true
	return Buf{id: id + 1, b: r.bufs[id]}, true
}

// Release returns a claimed buffer to the arena. Releasing the zero Buf
// is a no-op; releasing a buffer twice panics (ownership bug).
func (r *Ring) Release(b Buf) {
	if b.id == 0 {
		return
	}
	id := b.id - 1
	if !r.claimed[id] {
		panic("ring: buffer released twice (or never claimed)")
	}
	r.claimed[id] = false
	r.freeBufs = append(r.freeBufs, id)
}

// Push writes one submission entry into the SQ without touching the
// transport; it reports false (a counted sq-full stall) when the SQ is
// full or the ring is closed. Entries reach the wire on the next Submit.
func (r *Ring) Push(sqe SQE) bool {
	if r.closed || r.sqTail-r.sqHead == len(r.sq) {
		r.tel.Inc(telemetry.CtrRingSQFull)
		return false
	}
	if sqe.Buf.Valid() && sqe.Size > len(sqe.Buf.b) {
		panic("ring: SQE size exceeds its buffer")
	}
	r.sq[r.sqTail%len(r.sq)] = sqe
	r.sqTail++
	return true
}

// Submit flushes queued SQ entries to the transport — as many as free
// completion space allows — and rings the doorbell once for the whole
// train. It returns the number submitted; entries that did not fit stay
// queued for the next Submit.
func (r *Ring) Submit(p *sim.Proc) int {
	if r.closed {
		return 0
	}
	budget := r.cqSpace()
	n := 0
	for r.sqHead < r.sqTail && n < budget && len(r.freeSlots) > 0 {
		si := r.takeSlot(r.sq[r.sqHead%len(r.sq)])
		r.sqHead++
		s := &r.slots[si]
		if s.fut.Resolved() {
			s.fut.Arm(p.Engine())
		}
		s.fut.OnResolve(s.cb)
		r.q.SubmitInto(p, &s.io, s.fut)
		n++
	}
	if n > 0 {
		r.q.RingDoorbell(p)
		r.tel.Add(telemetry.CtrRingSubmits, int64(n))
		r.tel.Observe(telemetry.HistRingSubmitDepth, int64(n))
	}
	return n
}

// cqSpace bounds submission so completions are never dropped: inflight
// ops plus unreaped CQEs never exceed the CQ capacity.
func (r *Ring) cqSpace() int {
	return len(r.cq) - (r.cqTail - r.cqHead) - r.inflight
}

// takeSlot binds sqe to a free inflight slot and builds its IO in place.
func (r *Ring) takeSlot(sqe SQE) int32 {
	n := len(r.freeSlots)
	si := r.freeSlots[n-1]
	r.freeSlots = r.freeSlots[:n-1]
	s := &r.slots[si]
	s.sqe = sqe
	s.io = transport.IO{
		Write:  sqe.Write,
		Flush:  sqe.Flush,
		NSID:   sqe.NSID,
		Offset: sqe.Offset,
		Size:   sqe.Size,
		Tenant: r.cfg.Tenant,
	}
	if sqe.Buf.Valid() {
		s.io.Data = sqe.Buf.b[:sqe.Size]
	}
	r.inflight++
	return si
}

// complete runs in the resolver's context (the pre-bound per-slot
// callback): it retires the slot and publishes the CQE.
func (r *Ring) complete(si int32, res *transport.Result) {
	s := &r.slots[si]
	r.cq[r.cqTail%len(r.cq)] = CQE{
		UserData:  s.sqe.UserData,
		Status:    res.Status,
		Buf:       s.sqe.Buf,
		At:        r.e.Now(),
		Latency:   res.Latency,
		IOTime:    res.IOTime,
		CommTime:  res.CommTime,
		OtherTime: res.OtherTime,
	}
	r.cqTail++
	s.io.Data = nil
	r.inflight--
	r.freeSlots = append(r.freeSlots, si)
	r.cqReady.Fire()
}

// Reap copies up to len(dst) completions into dst, blocking until at
// least min (clamped to [1, len(dst)]) are available or nothing remains
// inflight. It returns the number reaped — 0 only when the ring is idle
// (nothing queued, inflight, or completed), so a poll loop terminates.
func (r *Ring) Reap(p *sim.Proc, dst []CQE, min int) int {
	if len(dst) == 0 {
		return 0
	}
	if min < 1 {
		min = 1
	}
	if min > len(dst) {
		min = len(dst)
	}
	for r.cqTail-r.cqHead < min && r.inflight > 0 {
		r.cqReady.Reset()
		r.cqReady.Wait(p)
	}
	n := r.cqTail - r.cqHead
	if n == 0 {
		return 0
	}
	if n > len(dst) {
		n = len(dst)
	}
	for i := 0; i < n; i++ {
		dst[i] = r.cq[r.cqHead%len(r.cq)]
		r.cqHead++
	}
	r.tel.Add(telemetry.CtrRingReaps, int64(n))
	r.tel.Observe(telemetry.HistRingReapDepth, int64(n))
	return n
}

// Close detaches the ring: further pushes and submits are refused,
// inflight completions still land and can be reaped. The underlying
// queue is NOT closed — the ring layers on a connection it doesn't own.
func (r *Ring) Close() {
	r.closed = true
}
