package oaf

import (
	"nvmeoaf/internal/ring"
)

// Ring-entry types, re-exported from the ring layer: SQE describes one
// submission, CQE one completion, Buf one registered buffer on loan from
// the ring's arena.
type (
	SQE = ring.SQE
	CQE = ring.CQE
	Buf = ring.Buf
)

// RingOptions sizes a Ring. Zero values take the defaults: SQSize 64,
// BufSize 128 KiB. The completion ring holds 2x SQSize entries and the
// registered buffer arena SQSize buffers.
type RingOptions struct {
	// SQSize is the submission-ring capacity and the inflight bound.
	SQSize int
	// BufSize is the size of each registered buffer.
	BufSize int
}

// Ring is the io_uring-style zero-copy fast path over a Queue: the
// application claims fixed-size buffers from the connection's registered
// region, describes I/O by pushing fixed-size SQ entries, flushes a
// train with one doorbell (Submit), and reaps completions in batches.
// Every entry completes into its slot's recycled future, so the steady
// state allocates no future or result per op and wakes each connection's
// reactor once per train instead of once per I/O — on a direct
// connection, a striped group and a replicated namespace alike (the
// last still allocates what replication itself needs).
//
// Ownership: a buffer moves Claim -> Push/Submit -> Reap -> Release.
// Between Submit and the CQE it belongs to the transport — do not touch
// it. One process drives a ring; rings on the same Queue are independent.
//
// The ring.* telemetry group (submit/reap depth histograms, sq-full and
// buffer stalls) lands in Cluster.Snapshot() alongside every other
// metric.
type Ring struct {
	inner *ring.Ring
	q     *Queue
}

// Ring builds a submission/completion ring over this queue. It works the
// same way on every Queue-shaped facade — Connect, ConnectGroup,
// ConnectReplicated.
func (q *Queue) Ring(opts RingOptions) *Ring {
	return &Ring{
		inner: ring.New(q.ctx.cluster.w.Engine, q.inner, ring.Config{
			SQSize:    opts.SQSize,
			BufSize:   opts.BufSize,
			Telemetry: q.ctx.cluster.w.Tel,
		}),
		q: q,
	}
}

// Claim lends one registered buffer from the arena; ok is false (a
// counted stall) when all buffers are out — reap and release first.
func (r *Ring) Claim() (Buf, bool) { return r.inner.Claim() }

// Release returns a reaped buffer to the arena. Releasing the zero Buf
// is a no-op; releasing twice panics.
func (r *Ring) Release(b Buf) { r.inner.Release(b) }

// Push queues one submission entry; it reports false (a counted stall)
// when the SQ is full. Entries reach the wire on the next Submit.
func (r *Ring) Push(sqe SQE) bool { return r.inner.Push(sqe) }

// Submit flushes queued entries to the transport with one doorbell for
// the whole train and returns how many were admitted; entries beyond the
// completion-space budget stay queued.
func (r *Ring) Submit() int { return r.inner.Submit(r.q.ctx.proc) }

// Reap copies up to len(dst) completions into dst, blocking until at
// least min are available or nothing remains inflight. It returns 0 only
// when the ring is idle, so a drain loop terminates.
func (r *Ring) Reap(dst []CQE, min int) int { return r.inner.Reap(r.q.ctx.proc, dst, min) }

// Close detaches the ring (inflight completions still land and can be
// reaped); the underlying Queue stays open.
func (r *Ring) Close() { r.inner.Close() }
