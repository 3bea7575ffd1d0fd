// Package perf implements the SPDK-perf-equivalent workload engine the
// paper uses for all microbenchmarks: per-stream sequential/random
// read/write/mixed generators with a fixed queue depth, warmup, a
// measured window, and per-request latency plus breakdown accounting.
//
// One Stream models one perf instance pinned to a core: a single driver
// process keeps QueueDepth commands outstanding against one transport
// queue and resubmits on every completion, exactly like SPDK perf's
// completion-driven loop.
package perf

import (
	"fmt"
	"math/rand"
	"time"

	"nvmeoaf/internal/ring"
	"nvmeoaf/internal/sim"
	"nvmeoaf/internal/stats"
	"nvmeoaf/internal/telemetry"
	"nvmeoaf/internal/transport"
)

// Workload describes one stream's I/O pattern.
type Workload struct {
	// Seq selects sequential offsets (wrapping over Span); otherwise
	// offsets are uniformly random block-aligned positions.
	Seq bool
	// Zipf, when positive and Seq is false, skews random offsets to a
	// hot set: items of IOSize granularity are drawn Zipfian with this
	// theta (YCSB's hot-set knob; 0.99 is the standard skew) and
	// scrambled across the span. Zero keeps the uniform pattern.
	Zipf float64
	// ReadPct is the percentage of reads (100 = pure read, 0 = pure
	// write, 70 = the paper's 70:30 mix).
	ReadPct int
	// IOSize is the request size in bytes (block aligned).
	IOSize int
	// SizeMix, when non-empty, draws each request's size from a weighted
	// distribution instead of the fixed IOSize — the "diverse workloads
	// with varying I/O sizes" of §3.3.
	SizeMix []SizeWeight
	// QueueDepth is the number of outstanding commands.
	QueueDepth int
	// Batch, when above 1, submits commands in trains of up to this size
	// (one submit-CPU charge, one doorbell per train) and reaps all
	// available completions per wakeup before refilling — the SPDK
	// submit/reap loop shape.
	Batch int
	// Ring drives the stream through the SQ/CQ ring fast path
	// (internal/ring) instead of the future-based Submit API: fixed
	// submission entries, one doorbell per refill train, completions
	// reaped in batches, no future or result allocated per op. Batch is
	// ignored in ring mode — the refill train IS the batch.
	Ring bool
	// Span is the working-set size in bytes (defaults to 1 GiB).
	Span int64
	// Warmup is excluded from measurement.
	Warmup time.Duration
	// Duration is the measured window (the paper uses 20 s).
	Duration time.Duration
	// FlipAt, together with FlipTo, switches the stream to a second
	// pattern phase mid-run: FlipAt is the offset from stream start
	// (warmup included) at which requests drawn after that instant use
	// FlipTo's pattern. The flip is a generator-side change only — the
	// queue, connection, and measured window are untouched, which is what
	// lets a tuning controller prove it re-converges across workload
	// phases without reconnecting.
	FlipAt time.Duration
	// FlipTo is the second phase's pattern (nil = no flip).
	FlipTo *Phase
}

// Phase is the pattern half of a Workload: the fields a mid-run flip
// replaces. All fields are authoritative — ReadPct 0 means pure write,
// Seq false means random — except IOSize, where 0 keeps the phase-one
// size. Span and QueueDepth cannot flip (they size buffers and bounds).
type Phase struct {
	Seq     bool
	Zipf    float64
	ReadPct int
	IOSize  int
	SizeMix []SizeWeight
}

// SizeWeight is one entry of a request-size distribution.
type SizeWeight struct {
	Size   int
	Weight int
}

// withDefaults normalizes the workload.
func (w Workload) withDefaults() Workload {
	if w.Span <= 0 {
		w.Span = 1 << 30
	}
	if w.QueueDepth <= 0 {
		w.QueueDepth = 128
	}
	if w.Duration <= 0 {
		w.Duration = time.Second
	}
	if w.IOSize <= 0 {
		w.IOSize = 4096
	}
	if w.FlipTo != nil && w.FlipTo.IOSize <= 0 {
		flip := *w.FlipTo
		flip.IOSize = w.IOSize
		w.FlipTo = &flip
	}
	return w
}

// MaxIOSize returns the largest request size any phase of the workload
// can draw — what buffer-sizing consumers must provision for.
func (w Workload) MaxIOSize() int {
	w = w.withDefaults()
	max := w.IOSize
	for _, sw := range w.SizeMix {
		if sw.Size > max {
			max = sw.Size
		}
	}
	if w.FlipTo != nil {
		if w.FlipTo.IOSize > max {
			max = w.FlipTo.IOSize
		}
		for _, sw := range w.FlipTo.SizeMix {
			if sw.Size > max {
				max = sw.Size
			}
		}
	}
	return max
}

// Result captures one stream's measured window.
type Result struct {
	Name       string
	Throughput stats.Throughput
	// Latency histograms: all ops, plus read/write splits.
	Latency, ReadLatency, WriteLatency *stats.Histogram
	// BD accumulates the paper's three-way latency decomposition.
	BD stats.Breakdown
	// Errors counts failed commands.
	Errors int64
	// PostFlip, for a flipped workload (Workload.FlipTo), separately
	// accounts completions landing after the flip instant, so phase-two
	// throughput and latency can be judged on their own. Those
	// completions are also included in the totals above.
	PostFlip *Result
}

// Stream drives one workload against one transport queue.
type Stream struct {
	e     *sim.Engine
	q     transport.Queue
	w     Workload
	tel   *telemetry.Sink
	rng   *rand.Rand
	zipf  *zipfGen
	res   *Result
	done  *sim.Signal
	start sim.Time
	// Flip state: the virtual instant the second phase begins and
	// whether the generator has switched yet.
	flipAt  sim.Time
	flipped bool
	// The futures driver's completions, and the request records it
	// recycles between submissions (driver-proc only; bounded by
	// capacity).
	completions *sim.Queue[compl]
	freeRecs    []*ioRec
}

// NewStream prepares a stream; Start launches its driver process. name
// labels the stream in results and names its process and RNG stream
// ("perf/"+name); tel, when the workload is in Ring mode, receives the
// ring.* metric group (nil = off).
func NewStream(e *sim.Engine, name string, q transport.Queue, w Workload, tel *telemetry.Sink) *Stream {
	w = w.withDefaults()
	var z *zipfGen
	if !w.Seq && w.Zipf > 0 {
		z = newZipf(w.Span/int64(w.IOSize), w.Zipf)
	}
	return &Stream{
		zipf: z,
		e:    e,
		q:    q,
		w:    w,
		tel:  tel,
		rng:  e.Rand("perf/" + name),
		res: &Result{
			Name:         name,
			Latency:      stats.NewHistogram(),
			ReadLatency:  stats.NewHistogram(),
			WriteLatency: stats.NewHistogram(),
		},
		done: sim.NewSignal(e),
	}
}

// Start launches the driver process at the current virtual time.
func (s *Stream) Start() {
	s.e.Go("perf/"+s.res.Name, s.drive)
}

// Wait blocks until the stream has drained after its measured window.
func (s *Stream) Wait(p *sim.Proc) *Result {
	s.done.Wait(p)
	return s.res
}

// Result returns the results (valid once the stream is done).
func (s *Stream) Result() *Result { return s.res }

// drive is the stream's single-core driver loop.
func (s *Stream) drive(p *sim.Proc) {
	if s.w.Ring {
		s.driveRing(p)
		return
	}
	defer s.done.Fire()
	s.start = p.Now()
	measureFrom := s.start.Add(s.w.Warmup)
	measureTo := measureFrom.Add(s.w.Duration)
	s.armFlip()

	s.completions = sim.NewQueue[compl](s.e, 0)
	var seqOffset int64
	outstanding := 0

	// Batched submission path: trains of up to w.Batch commands per
	// doorbell.
	batch := s.w.Batch
	if batch <= 1 {
		batch = 1
	}
	// Preallocated trains and recycled request records keep the
	// steady-state driver loop down to the future each Submit returns.
	train := make([]*transport.IO, 0, batch)
	recs := make([]*ioRec, 0, batch)
	futs := make([]*sim.Future[*transport.Result], 0, batch)
	s.freeRecs = make([]*ioRec, 0, s.w.QueueDepth+batch)

	submit := func() {
		rec := s.nextRec(&seqOffset)
		transport.Submit(p, s.q, &rec.io).OnResolve(rec.onDone)
		outstanding++
	}
	submitTrain := func(n int) {
		train, recs = train[:0], recs[:0]
		for i := 0; i < n; i++ {
			rec := s.nextRec(&seqOffset)
			recs = append(recs, rec)
			train = append(train, &rec.io)
		}
		futs = transport.SubmitBatch(p, s.q, train, futs)
		for i, fut := range futs {
			fut.OnResolve(recs[i].onDone)
		}
		outstanding += n
	}
	refill := func(n int) {
		if batch == 1 {
			for i := 0; i < n; i++ {
				submit()
			}
			return
		}
		for n > 0 {
			k := n
			if k > batch {
				k = batch
			}
			submitTrain(k)
			n -= k
		}
	}

	refill(s.w.QueueDepth)
	for outstanding > 0 {
		c, ok := s.completions.Get(p)
		if !ok {
			break
		}
		// Reap everything available before refilling, so the refill train
		// covers the whole harvest (the SPDK completion-reap shape).
		freed := 1
		outstanding--
		s.record(c, measureFrom, measureTo)
		for {
			c, ok = s.completions.TryGet()
			if !ok {
				break
			}
			freed++
			outstanding--
			s.record(c, measureFrom, measureTo)
		}
		if p.Now() < measureTo {
			refill(freed)
		}
	}
	s.res.Throughput.Start = time.Duration(measureFrom)
	s.res.Throughput.End = time.Duration(measureTo)
	s.closeFlipWindow(measureFrom, measureTo)
}

// armFlip latches the flip instant from the stream's start time.
func (s *Stream) armFlip() {
	if s.w.FlipTo != nil {
		s.flipAt = s.start.Add(s.w.FlipAt)
	}
}

// maybeFlip switches the generator to the second phase once virtual
// time passes the flip instant. Called on the request-drawing path, so
// every request after the flip uses the new pattern; completions of
// phase-one requests still in flight drain normally. The sequential
// cursor resets so a flipped-to sequential phase starts a clean walk.
func (s *Stream) maybeFlip(seqOffset *int64) {
	if s.w.FlipTo == nil || s.flipped || s.e.Now() < s.flipAt {
		return
	}
	s.flipped = true
	*seqOffset = 0
	ph := s.w.FlipTo
	s.w.Seq = ph.Seq
	s.w.Zipf = ph.Zipf
	s.w.ReadPct = ph.ReadPct
	s.w.IOSize = ph.IOSize
	s.w.SizeMix = ph.SizeMix
	s.zipf = nil
	if !ph.Seq && ph.Zipf > 0 {
		s.zipf = newZipf(s.w.Span/int64(ph.IOSize), ph.Zipf)
	}
	s.res.PostFlip = &Result{
		Name:         s.res.Name + "/post-flip",
		Latency:      stats.NewHistogram(),
		ReadLatency:  stats.NewHistogram(),
		WriteLatency: stats.NewHistogram(),
	}
}

// closeFlipWindow stamps the post-flip sub-result's measured window:
// from the flip instant (clamped into the measured window) to its end.
func (s *Stream) closeFlipWindow(from, to sim.Time) {
	pf := s.res.PostFlip
	if pf == nil {
		return
	}
	start := s.flipAt
	if start < from {
		start = from
	}
	pf.Throughput.Start = time.Duration(start)
	pf.Throughput.End = time.Duration(to)
}

// driveRing is the ring-mode driver: the same completion-driven loop as
// drive, shaped as push -> one doorbell -> batched reap over a
// submission/completion ring. Payloads are modeled (zero-Buf entries),
// so a measured difference against the future-based driver isolates the
// per-op submission/completion machinery — which is exactly what the
// ring removes: no future or result allocation, no per-op wakeup.
func (s *Stream) driveRing(p *sim.Proc) {
	defer s.done.Fire()
	s.start = p.Now()
	measureFrom := s.start.Add(s.w.Warmup)
	measureTo := measureFrom.Add(s.w.Duration)
	s.armFlip()

	depth := s.w.QueueDepth
	r := ring.New(s.e, s.q, ring.Config{
		SQSize:    depth,
		Buffers:   1, // modeled payloads: the arena stays unused
		BufSize:   transport.BlockSize,
		Telemetry: s.tel,
	})
	cq := make([]ring.CQE, depth)
	var seqOffset int64
	// The op's direction and size ride in UserData so the CQE is
	// self-describing: bit 0 = write, the rest = size.
	push := func(n int) {
		for i := 0; i < n; i++ {
			write, off, size := s.nextOp(&seqOffset)
			ud := uint64(size) << 1
			if write {
				ud |= 1
			}
			r.Push(ring.SQE{Write: write, Offset: off, Size: size, UserData: ud})
		}
	}
	push(depth)
	r.Submit(p)
	for {
		n := r.Reap(p, cq, 1)
		if n == 0 {
			break
		}
		for i := 0; i < n; i++ {
			s.recordCQE(&cq[i], measureFrom, measureTo)
		}
		// Refill the whole harvest with one train + doorbell.
		if p.Now() < measureTo {
			push(n)
			r.Submit(p)
		}
	}
	r.Close()
	s.res.Throughput.Start = time.Duration(measureFrom)
	s.res.Throughput.End = time.Duration(measureTo)
	s.closeFlipWindow(measureFrom, measureTo)
}

// recordCQE accounts one ring completion inside the measured window.
func (s *Stream) recordCQE(c *ring.CQE, from, to sim.Time) {
	if c.Status.IsError() {
		s.res.Errors++
		return
	}
	if c.At < from || c.At >= to {
		return
	}
	s.recordSample(c.At, c.UserData&1 == 1, int64(c.UserData>>1), int64(c.Latency))
	s.res.BD.Add(c.IOTime, c.CommTime, c.OtherTime)
	if pf := s.postFlipFor(c.At); pf != nil {
		pf.BD.Add(c.IOTime, c.CommTime, c.OtherTime)
	}
}

// ioRec is one request of the futures driver: the IO the queue completes
// into (its result lives there) and the completion callback, bound once
// when the record is made, as a ring slot's is. Records recycle once
// their completion is recorded.
type ioRec struct {
	io     transport.IO
	onDone func(*transport.Result)
}

// compl is one completion waiting for the driver: res points into rec.io.
type compl struct {
	rec *ioRec
	res *transport.Result
	at  sim.Time
}

// record accounts one completion if it falls inside the measured window,
// then recycles its request record.
func (s *Stream) record(c compl, from, to sim.Time) {
	io, res := &c.rec.io, c.res
	switch {
	case res.Status.IsError():
		s.res.Errors++
	case c.at < from || c.at >= to: // outside the measured window
	default:
		s.recordSample(c.at, io.Write, int64(io.Size), int64(res.Latency))
		s.res.BD.Add(res.IOTime, res.CommTime, res.OtherTime)
		if pf := s.postFlipFor(c.at); pf != nil {
			pf.BD.Add(res.IOTime, res.CommTime, res.OtherTime)
		}
	}
	if len(s.freeRecs) < cap(s.freeRecs) {
		s.freeRecs = append(s.freeRecs, c.rec)
	}
}

// recordSample accounts one in-window completion into the totals and,
// when it lands after the flip instant, the post-flip sub-result.
func (s *Stream) recordSample(at sim.Time, write bool, size, lat int64) {
	for _, r := range [...]*Result{s.res, s.postFlipFor(at)} {
		if r == nil {
			continue
		}
		r.Throughput.Ops++
		r.Throughput.Bytes += size
		r.Latency.Record(lat)
		if write {
			r.WriteLatency.Record(lat)
		} else {
			r.ReadLatency.Record(lat)
		}
	}
}

// postFlipFor returns the post-flip sub-result when the completion
// belongs to the second phase's interval (nil otherwise).
func (s *Stream) postFlipFor(at sim.Time) *Result {
	if s.res.PostFlip != nil && at >= s.flipAt {
		return s.res.PostFlip
	}
	return nil
}

// pickSize draws the next request size.
func (s *Stream) pickSize() int {
	if len(s.w.SizeMix) == 0 {
		return s.w.IOSize
	}
	total := 0
	for _, sw := range s.w.SizeMix {
		total += sw.Weight
	}
	n := s.rng.Intn(total)
	for _, sw := range s.w.SizeMix {
		n -= sw.Weight
		if n < 0 {
			return sw.Size
		}
	}
	return s.w.SizeMix[len(s.w.SizeMix)-1].Size
}

// nextOp draws the next request of the pattern: direction, offset, size.
func (s *Stream) nextOp(seqOffset *int64) (write bool, off int64, size int) {
	s.maybeFlip(seqOffset)
	w := s.w
	write = s.rng.Intn(100) >= w.ReadPct
	size = s.pickSize()
	switch {
	case w.Seq:
		off = *seqOffset
		*seqOffset += int64(size)
		if *seqOffset+int64(size) > w.Span {
			*seqOffset = 0
		}
	case s.zipf != nil:
		// Hot-set pattern: IOSize-granular items drawn Zipfian, so the
		// same hot offsets recur (and land cache-line aligned).
		off = s.zipf.next(s.rng) * int64(w.IOSize)
		if off+int64(size) > w.Span {
			off = (w.Span - int64(size)) / transport.BlockSize * transport.BlockSize
		}
	default:
		blocks := (w.Span - int64(size)) / transport.BlockSize
		if blocks <= 0 {
			blocks = 1
		}
		off = s.rng.Int63n(blocks) * transport.BlockSize
	}
	return write, off, size
}

// nextRec draws the next request into a (recycled) request record.
func (s *Stream) nextRec(seqOffset *int64) *ioRec {
	write, off, size := s.nextOp(seqOffset)
	var rec *ioRec
	if n := len(s.freeRecs); n > 0 {
		rec = s.freeRecs[n-1]
		s.freeRecs = s.freeRecs[:n-1]
	} else {
		rec = &ioRec{}
		rec.onDone = func(r *transport.Result) {
			s.completions.TryPut(compl{rec: rec, res: r, at: s.e.Now()})
		}
	}
	rec.io = transport.IO{Write: write, Offset: off, Size: size}
	return rec
}

// Aggregate combines several stream results into experiment-level
// figures: summed bandwidth over the common window, merged latency
// histograms, merged breakdowns.
type Aggregate struct {
	Throughput stats.Throughput
	Latency    *stats.Histogram
	ReadLat    *stats.Histogram
	WriteLat   *stats.Histogram
	BD         stats.Breakdown
	Errors     int64
}

// Merge aggregates the given results.
func Merge(results ...*Result) Aggregate {
	agg := Aggregate{
		Latency:  stats.NewHistogram(),
		ReadLat:  stats.NewHistogram(),
		WriteLat: stats.NewHistogram(),
	}
	for i, r := range results {
		if i == 0 {
			agg.Throughput.Start = r.Throughput.Start
			agg.Throughput.End = r.Throughput.End
		}
		agg.Throughput.Ops += r.Throughput.Ops
		agg.Throughput.Bytes += r.Throughput.Bytes
		agg.Latency.Merge(r.Latency)
		agg.ReadLat.Merge(r.ReadLatency)
		agg.WriteLat.Merge(r.WriteLatency)
		agg.BD.Merge(r.BD)
		agg.Errors += r.Errors
	}
	return agg
}

// String renders a one-line summary.
func (a Aggregate) String() string {
	return fmt.Sprintf("%.3f GB/s, %.0f IOPS, avg %.1fus (io %.1f / comm %.1f / other %.1f), p99.99 %.1fus",
		a.Throughput.GBps(), a.Throughput.IOPS(), a.BD.MeanTotal(),
		a.BD.MeanIO(), a.BD.MeanComm(), a.BD.MeanOther(),
		float64(a.Latency.P9999())/1e3)
}
