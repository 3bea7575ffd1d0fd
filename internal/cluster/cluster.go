// Package cluster is the self-healing sharded + replicated namespace
// layer: a placement/replication router stacked above transport.Queue
// that turns N independent NVMe-oF targets into one survivable
// namespace.
//
// Placement shards the namespace into stripe-aligned extents and maps
// each extent onto R distinct seats of a consistent-hash ring
// (ring.go). Writes fan out to all R replicas and acknowledge at the
// write quorum W (majority by default); per-extent version tracking
// records which replicas hold the latest quorum-committed version, and
// reads are routed only to replicas known to hold it — read-your-write
// holds across replica failover. Replica death is detected from
// keep-alive probes and typed NVMe errors on the data path; a dead
// member's seat is inherited by a spare, and a background
// re-replication loop (rebuild.go) copies stale extents from surviving
// replicas until the cluster is whole again. Everything runs on the
// deterministic sim clock: a given seed replays every failover and
// rebuild bit-identically.
package cluster

import (
	"fmt"
	"time"

	"nvmeoaf/internal/nvme"
	"nvmeoaf/internal/sim"
	"nvmeoaf/internal/telemetry"
	"nvmeoaf/internal/transport"
)

// Member is one attachable replica target: an established queue to a
// target that stores extents at identity offsets (replica i's byte x is
// the namespace's byte x).
type Member struct {
	// Name labels the member in stats, traces, and errors (its NQN).
	Name string
	// Queue is the established connection. It should be configured with
	// a command timeout and keep-alive so crashed targets produce typed
	// errors instead of hanging the probe loop.
	Queue transport.Queue
}

// Options configures a replicated namespace.
type Options struct {
	// Seats is N, the number of data-bearing targets the namespace is
	// sharded across (default: all members, leaving no spares).
	Seats int
	// Replicas is R, the copies kept of each extent (default 2, capped
	// at Seats).
	Replicas int
	// WriteQuorum is W, the replica acks required before a write
	// completes (default majority of R; clamped to [1, R]).
	WriteQuorum int
	// ExtentSize is the placement granularity in bytes, rounded up to a
	// BlockSize multiple (default transport.DefaultStripeUnit). I/Os
	// spanning extents split at boundaries and aggregate like striping.
	ExtentSize int64
	// ProbeInterval is the keep-alive probing period per member; 0
	// disables probing (death is then detected from data-path errors
	// only).
	ProbeInterval time.Duration
	// ProbeTimeout bounds each probe: a keep-alive that neither
	// completes nor fails within it counts as a miss (default 4x
	// ProbeInterval). This catches members whose transport is nursing
	// commands through reconnect/retry loops instead of failing them —
	// unresponsive is as dead as erroring.
	ProbeTimeout time.Duration
	// ProbeMisses is the consecutive typed-failure count (probe or data
	// path) that declares a member dead (default 2).
	ProbeMisses int
	// RetainData makes rebuild move real bytes (the targets store
	// payloads); modeled namespaces copy timing only.
	RetainData bool
	// Namespace labels this cluster in stats.
	Namespace string
	// Telemetry receives cluster counters, rebuild histograms, and
	// replica up/down trace events; nil disables.
	Telemetry *telemetry.Sink
}

func (o Options) withDefaults(members int) Options {
	if o.Seats <= 0 || o.Seats > members {
		o.Seats = members
	}
	if o.Replicas <= 0 {
		o.Replicas = 2
	}
	if o.Replicas > o.Seats {
		o.Replicas = o.Seats
	}
	if o.WriteQuorum <= 0 {
		o.WriteQuorum = o.Replicas/2 + 1
	}
	if o.WriteQuorum > o.Replicas {
		o.WriteQuorum = o.Replicas
	}
	if o.ExtentSize <= 0 {
		o.ExtentSize = transport.DefaultStripeUnit
	}
	if rem := o.ExtentSize % transport.BlockSize; rem != 0 {
		o.ExtentSize += transport.BlockSize - rem
	}
	if o.ProbeMisses <= 0 {
		o.ProbeMisses = 2
	}
	if o.ProbeTimeout <= 0 {
		o.ProbeTimeout = 4 * o.ProbeInterval
	}
	return o
}

// A replica member's connection fails fast: the namespace owns
// redundancy, so a dead member should surface typed errors quickly
// (triggering failover and rebuild) rather than hide the outage behind
// long per-member retry loops.
const (
	memberTimeout = 500 * time.Microsecond
	memberRetries = 1
	memberBackoff = 100 * time.Microsecond
	// ProbePeriod is the member keep-alive period of a namespace that
	// probes and was given none.
	ProbePeriod = 200 * time.Microsecond
)

// FailFast fills the zero ones of a member connection's command
// time-out, retry count and retry back-off with the fail-fast values.
// Every builder of a namespace takes its member options from here.
func FailFast(timeout *time.Duration, retries *int, backoff *time.Duration) {
	if *timeout <= 0 {
		*timeout = memberTimeout
	}
	if *retries <= 0 {
		*retries = memberRetries
	}
	if *backoff <= 0 {
		*backoff = memberBackoff
	}
}

// Seats is the seat count (Options.Seats) of a namespace over members
// targets that holds spares of them out as warm spares; spares must lie
// in [0, members).
func Seats(members, spares int) (int, error) {
	if spares < 0 || spares >= members {
		return 0, fmt.Errorf("cluster: spares must be in [0, %d)", members)
	}
	return members - spares, nil
}

// seatState is one stable placement slot. gen bumps whenever the
// occupant changes, invalidating every per-extent ack recorded against
// the previous occupant in O(1).
type seatState struct {
	member int // members index; -1 while vacant (dead occupant, no spare)
	gen    int64
}

// memberState tracks one attached target's service state.
type memberState struct {
	idx    int
	name   string
	q      transport.Queue
	alive  bool
	seat   int // occupied seat, -1 when spare or displaced
	misses int // consecutive typed failures (probe or data path)

	// Probe fencing: probeGen numbers the keep-alive probes issued to
	// this member; probeSeen is the highest generation whose outcome
	// (typed answer, timeout, or late resolution) has been applied to the
	// health streak. A hung probe can resolve long after newer probes
	// settled — its feedback is stale and must be dropped, not replayed
	// against the newer streak. Close fences by advancing probeSeen past
	// probeGen, retiring every in-flight probe at once.
	probeGen  int64
	probeSeen int64
}

// replState is one (extent, seat) replica record: the highest version
// this seat's occupant has acknowledged, valid only while gen matches
// the seat's current generation. chain serializes writes to this
// replica so quorum-overlapped writes cannot reorder on the wire: it is
// the replica write issued last, in flight while its future is
// unresolved, and that write's completion clears it before its record
// can be recycled.
type replState struct {
	seat  int
	gen   int64
	acked int64
	chain *replWrite
}

// extentState is the per-extent routing record.
type extentState struct {
	idx       int64
	pos       int   // first-touch position: index in extentList and the stale index
	ver       int64 // latest version assigned to a write
	committed int64 // highest quorum-acknowledged version
	size      int   // bytes ever written within the extent (rebuild copy size)
	repl      []replState
}

// extentChunk is how many extent records (and their replica records)
// one slab allocation holds.
const extentChunk = 256

// Cluster is the replicated namespace router. It implements
// transport.Queue, so perf streams, rings, the oaf facade, and striped
// groups stack on it unchanged.
type Cluster struct {
	e       *sim.Engine
	opts    Options
	ring    *Ring
	members []*memberState
	seats   []seatState
	spares  []int // member indices waiting to inherit a seat, FIFO

	extents    map[int64]*extentState
	extentList []*extentState // deterministic iteration order for rebuild
	extentSlab []extentState  // unused extent records of the current chunk
	replSlab   []replState    // their replica records
	seatBuf    []int          // reused Ring.Locate output

	// The stale index (rebuild.go): bit i is set whenever extentList[i]
	// may hold a stale replica, unless staleAll stands for every bit.
	staleBits   []uint64
	staleAll    bool
	staleChecks int64  // staleRepl calls: a deterministic work count
	indexProbe  func() // tests only: runs after every visit of the index

	// Recycled per-I/O records, and the rebuild loop's own I/Os (it copies
	// one extent at a time).
	freeWrites *writeOp
	freeReads  *readOp
	rbRead     transport.IO
	rbReadFut  sim.Future[*transport.Result]
	rbCopy     replWrite

	workQ   *sim.Queue[func(p *sim.Proc)]
	dirty   *sim.Signal // wakes the rebuild loop
	closing bool
	tel     *telemetry.Sink
	rr      int // read-rotation cursor across eligible replicas

	// Counters mirrored into telemetry (kept locally for Stats()).
	writes, reads  int64
	quorumFails    int64
	readFailovers  int64
	degradedIOs    int64
	replicaDowns   int64
	replicaUps     int64
	rebuildRounds  int64
	rebuildExtents int64
	rebuildBytes   int64
}

// New assembles a replicated namespace over the given members: the
// first Seats members occupy the ring's seats, the rest start as
// spares. Call Close to tear every member queue down.
func New(e *sim.Engine, members []Member, opts Options) (*Cluster, error) {
	if len(members) == 0 {
		return nil, fmt.Errorf("cluster: need at least one member")
	}
	opts = opts.withDefaults(len(members))
	if opts.Seats > 64 {
		return nil, fmt.Errorf("cluster: at most 64 seats, got %d", opts.Seats)
	}
	c := &Cluster{
		e:       e,
		opts:    opts,
		ring:    NewRing(opts.Seats, opts.Replicas),
		seats:   make([]seatState, opts.Seats),
		extents: make(map[int64]*extentState),
		workQ:   sim.NewQueue[func(p *sim.Proc)](e, 0),
		dirty:   sim.NewSignal(e),
		tel:     opts.Telemetry,
	}
	c.rbCopy.bind(c, nil)
	for i, m := range members {
		ms := &memberState{idx: i, name: m.Name, q: m.Queue, alive: true, seat: -1}
		c.members = append(c.members, ms)
		if i < opts.Seats {
			ms.seat = i
			c.seats[i] = seatState{member: i}
		} else {
			c.spares = append(c.spares, i)
		}
	}
	e.GoDaemon("cluster-worker", c.workerLoop)
	e.GoDaemon("cluster-rebuild", c.rebuildLoop)
	if opts.ProbeInterval > 0 {
		for _, ms := range c.members {
			m := ms
			e.GoDaemon(fmt.Sprintf("cluster-probe-%s", m.name), func(p *sim.Proc) {
				c.probeLoop(p, m)
			})
		}
	}
	return c, nil
}

// workerLoop executes deferred submissions: work that must run on a
// process (queue Submit can block on flow control) but was scheduled
// from a resolve callback (write chains, read failovers).
func (c *Cluster) workerLoop(p *sim.Proc) {
	for {
		fn, ok := c.workQ.Get(p)
		if !ok {
			return
		}
		fn(p)
	}
}

// defer_ schedules fn on the worker process.
func (c *Cluster) defer_(fn func(p *sim.Proc)) { c.workQ.TryPut(fn) }

// extentFor maps a byte offset to its extent index.
func (c *Cluster) extentFor(off int64) int64 { return off / c.opts.ExtentSize }

// extent returns (creating on first touch) the routing record for ext.
// Records come from fixed-size slab chunks, so a first touch allocates
// only when a chunk runs out.
func (c *Cluster) extent(ext int64) *extentState {
	st, ok := c.extents[ext]
	if ok {
		return st
	}
	r := c.opts.Replicas
	if len(c.extentSlab) == 0 {
		c.extentSlab = make([]extentState, extentChunk)
		c.replSlab = make([]replState, extentChunk*r)
	}
	st = &c.extentSlab[0]
	c.extentSlab = c.extentSlab[1:]
	st.idx, st.pos = ext, len(c.extentList)
	st.repl = c.replSlab[:0:r]
	c.replSlab = c.replSlab[r:]
	c.seatBuf = c.ring.Locate(ext, c.seatBuf[:0])
	for _, s := range c.seatBuf {
		st.repl = append(st.repl, replState{seat: s, gen: c.seats[s].gen})
	}
	c.extents[ext] = st
	c.extentList = append(c.extentList, st)
	if st.pos>>6 == len(c.staleBits) {
		c.staleBits = append(c.staleBits, 0)
	}
	return st
}

// occupant returns the member currently seated at seat, nil when the
// seat is vacant.
func (c *Cluster) occupant(seat int) *memberState {
	m := c.seats[seat].member
	if m < 0 {
		return nil
	}
	return c.members[m]
}

// eligible reports whether replica ri of st can serve a read without
// violating read-your-write: its occupant is alive and has acknowledged
// at least the extent's committed version under the seat's current
// generation. An extent never committed reads from any live replica.
func (c *Cluster) eligible(st *extentState, ri int) bool {
	rs := &st.repl[ri]
	ms := c.occupant(rs.seat)
	if ms == nil || !ms.alive {
		return false
	}
	if st.committed == 0 {
		return true
	}
	return rs.gen == c.seats[rs.seat].gen && rs.acked >= st.committed
}

// SubmitInto implements transport.Queue. A read contained in one extent
// is staged on an up-to-date replica's queue and goes out with the
// cluster's doorbell. Everything else is submitted on p right away, each
// member command staged and rung at once: writes replicate to quorum,
// I/Os spanning extents split and aggregate, admin commands probe the
// first live member, and flush fans out to every live seated member (the
// durability barrier must drain every replica it may have dirtied).
func (c *Cluster) SubmitInto(p *sim.Proc, io *transport.IO, fut *sim.Future[*transport.Result]) {
	switch {
	case io.Admin != 0:
		c.submitAdmin(p, io, fut)
	case io.Flush:
		c.submitFlush(p, io, fut)
	case transport.SpanCount(io, c.opts.ExtentSize) > 1:
		segs := transport.SplitAt(io, c.opts.ExtentSize)
		futs := make([]*sim.Future[*transport.Result], len(segs))
		for i, seg := range segs {
			futs[i] = sim.NewFuture[*transport.Result](c.e)
			if seg.Write {
				c.submitWrite(p, seg, futs[i])
			} else if ms := c.stageRead(p, seg, futs[i]); ms != nil {
				ms.q.RingDoorbell(p)
			}
		}
		transport.AggregateResults(fut, io, segs, futs)
	case io.Write:
		c.submitWrite(p, io, fut)
	default:
		c.stageRead(p, io, fut)
	}
}

// RingDoorbell implements transport.Queue: one doorbell per member, in
// attachment order, for the reads staged since the last one (a member
// with nothing staged costs nothing).
func (c *Cluster) RingDoorbell(p *sim.Proc) {
	for _, ms := range c.members {
		ms.q.RingDoorbell(p)
	}
}

// submitNow stages one command on a member queue to complete into fut
// and rings that member at once.
func submitNow(p *sim.Proc, q transport.Queue, io *transport.IO, fut *sim.Future[*transport.Result]) {
	q.SubmitInto(p, io, fut)
	q.RingDoorbell(p)
}

// submitAdmin forwards an admin command to the first live member.
func (c *Cluster) submitAdmin(p *sim.Proc, io *transport.IO, fut *sim.Future[*transport.Result]) {
	for _, ms := range c.members {
		if ms.alive {
			submitNow(p, ms.q, io, fut)
			return
		}
	}
	fut.Resolve(&transport.Result{Status: nvme.StatusNamespaceNotRdy})
}

// submitFlush fans the barrier out to every live seated member.
func (c *Cluster) submitFlush(p *sim.Proc, io *transport.IO, fut *sim.Future[*transport.Result]) {
	var futs []*sim.Future[*transport.Result]
	for s := range c.seats {
		ms := c.occupant(s)
		if ms == nil || !ms.alive {
			continue
		}
		futs = append(futs, transport.Submit(p, ms.q, &transport.IO{Flush: true, NSID: io.NSID, Tenant: io.Tenant}))
	}
	if len(futs) == 0 {
		fut.Resolve(&transport.Result{Status: nvme.StatusNamespaceNotRdy})
		return
	}
	// A flush fan-out carries no offsets; seat order is the deterministic
	// tie-break for the merged status.
	transport.AggregateResults(fut, io, nil, futs)
}

// writeOp tracks one replicated write until quorum (or until quorum
// becomes unreachable). Records are recycled through the cluster's free
// list: one is returned once the write has resolved and every replica
// write it issued has completed.
type writeOp struct {
	c        *Cluster
	st       *extentState
	v        int64
	io       *transport.IO // the caller's: the result lands in it
	out      *sim.Future[*transport.Result]
	start    sim.Time
	needed   int
	pending  int // replica submissions still unresolved
	acks     int
	refs     int // issued replica writes not yet done, plus one while issuing
	resolved bool
	merged   transport.Result
	errSt    nvme.Status
	repl     []replWrite // indexed like st.repl
	next     *writeOp    // free list
}

// replWrite is one replica's copy of a write (or a rebuild copy, w ==
// nil): the IO sent to the seat's occupant, the future it completes
// into, and the chained write to issue once it has resolved. Its
// callbacks are bound once, when the record is made.
type replWrite struct {
	c      *Cluster
	w      *writeOp
	rs     *replState
	ms     *memberState
	gen    int64 // seat generation the write was issued under
	io     transport.IO
	fut    sim.Future[*transport.Result]
	next   *replWrite
	done   func(*transport.Result)
	submit func(*sim.Proc)
}

// getWrite pops a write record, making one (its replica writes and their
// bound callbacks included) when the free list is empty.
func (c *Cluster) getWrite() *writeOp {
	w := c.freeWrites
	if w == nil {
		w = &writeOp{c: c, repl: make([]replWrite, c.opts.Replicas)}
		for i := range w.repl {
			w.repl[i].bind(c, w)
		}
		return w
	}
	c.freeWrites = w.next
	w.next = nil
	return w
}

// unref drops one reference; the last returns the record to the free
// list.
func (w *writeOp) unref() {
	if w.refs--; w.refs > 0 {
		return
	}
	w.st, w.io, w.out = nil, nil, nil
	w.pending, w.acks, w.resolved = 0, 0, false
	w.merged, w.errSt = transport.Result{}, nvme.StatusSuccess
	w.next = w.c.freeWrites
	w.c.freeWrites = w
}

// ack folds one successful replica completion in; the W-th ack commits
// the version, marks the extent in the stale index (the replicas still
// short of the new version are stale now) and completes the caller's IO.
func (w *writeOp) ack(r *transport.Result) {
	w.pending--
	w.acks++
	if r.Latency > w.merged.Latency {
		w.merged.Latency = r.Latency
	}
	if r.IOTime > w.merged.IOTime {
		w.merged.IOTime = r.IOTime
	}
	if r.CommTime > w.merged.CommTime {
		w.merged.CommTime = r.CommTime
	}
	if w.resolved || w.acks < w.needed {
		return
	}
	w.resolved = true
	if w.v > w.st.committed {
		w.st.committed = w.v
		w.c.markStale(w.st)
	}
	w.c.writes++
	w.c.tel.Inc(telemetry.CtrReplWrites)
	res := w.merged
	res.Status = nvme.StatusSuccess
	res.Latency = w.c.e.Now().Sub(w.start)
	if other := res.Latency - res.IOTime - res.CommTime; other > 0 {
		res.OtherTime = other
	}
	w.io.Complete(w.out, res)
}

// fail folds one replica failure in; when quorum can no longer be
// reached the write fails with the first replica error.
func (w *writeOp) fail(st nvme.Status) {
	w.pending--
	if w.errSt == nvme.StatusSuccess {
		w.errSt = st
	}
	if w.resolved || w.acks+w.pending >= w.needed {
		return
	}
	w.resolved = true
	w.c.quorumFails++
	w.c.tel.Inc(telemetry.CtrReplQuorumFails)
	w.io.Complete(w.out, transport.Result{
		Status:  w.errSt,
		Latency: w.c.e.Now().Sub(w.start),
	})
}

// submitWrite fans one extent-contained write out to its R replicas and
// resolves out at the write quorum. Each replica write rides that
// replica's per-extent chain, so two overlapping writes to the same
// extent apply in version order on every replica.
func (c *Cluster) submitWrite(p *sim.Proc, io *transport.IO, out *sim.Future[*transport.Result]) {
	st := c.extent(c.extentFor(io.Offset))
	st.ver++
	if end := int(io.Offset + int64(io.Size) - st.idx*c.opts.ExtentSize); end > st.size {
		st.size = end
	}
	w := c.getWrite()
	w.st, w.v, w.io, w.out = st, st.ver, io, out
	w.start = p.Now()
	w.needed = c.opts.WriteQuorum
	w.refs = 1
	issued := 0
	first := true
	for ri := range st.repl {
		rs := &st.repl[ri]
		ms := c.occupant(rs.seat)
		if ms == nil || !ms.alive {
			continue
		}
		// Only the first replica copy is QoS-chargeable: a quorum write
		// debits the tenant's budget once, the fan-out copies ride exempt
		// but stay attributed for per-tenant telemetry.
		rw := &w.repl[ri]
		rw.io = transport.IO{
			Write: true, NSID: io.NSID, Offset: io.Offset, Size: io.Size,
			Data: io.Data, NoFill: !first || io.NoFill,
			Tenant: io.Tenant, QoSExempt: !first || io.QoSExempt,
		}
		rw.rs, rw.ms, rw.gen = rs, ms, c.seats[rs.seat].gen
		first = false
		issued++
		w.pending++
		w.refs++
		c.tel.Inc(telemetry.CtrReplReplicaWrites)
		c.chainSubmit(p, rw)
	}
	if issued < len(st.repl) {
		c.degradedIOs++
		c.tel.Inc(telemetry.CtrReplDegraded)
	}
	if issued < w.needed && !w.resolved {
		// Not enough live replicas to ever reach quorum: fail fast (the
		// issued writes still complete in the background and record
		// their acks for rebuild bookkeeping).
		w.resolved = true
		c.quorumFails++
		c.tel.Inc(telemetry.CtrReplQuorumFails)
		io.Complete(out, transport.Result{Status: nvme.StatusNamespaceNotRdy})
	}
	w.unref()
}

// chainSubmit issues rw through its (extent, seat) chain: at once when
// the replica's previous write has resolved, otherwise on the worker
// process once it does. This prevents a quorum-overlapped later write
// from passing an earlier one on the same replica queue. rw.done is
// registered after the submission, as a caller of transport.Submit
// would register it.
func (c *Cluster) chainSubmit(p *sim.Proc, rw *replWrite) {
	rw.fut.Arm(c.e)
	prev := rw.rs.chain
	rw.rs.chain = rw
	if prev == nil || prev.fut.Resolved() {
		rw.send(p)
	} else {
		prev.next = rw
	}
	rw.fut.OnResolve(rw.done)
}

// bind makes rw a replica write of w (a rebuild copy when w is nil) and
// binds its callbacks.
func (rw *replWrite) bind(c *Cluster, w *writeOp) {
	rw.c, rw.w = c, w
	rw.done = rw.resolved
	rw.submit = rw.send
}

// send stages rw on its member queue and rings that member at once.
func (rw *replWrite) send(p *sim.Proc) { submitNow(p, rw.ms.q, &rw.io, &rw.fut) }

// resolved completes one replica write, in the order the rest of the
// router relies on: the chain forgets rw, a foreground write records the
// ack (against the seat generation it was issued under: a promoted spare
// restarts from a clean one) and re-wakes rebuild if the extent is left
// stale, and only then is the chained successor deferred.
func (rw *replWrite) resolved(r *transport.Result) {
	c, rs, w := rw.c, rw.rs, rw.w
	if rs.chain == rw {
		rs.chain = nil
	}
	if w != nil {
		if r.Status == nvme.StatusSuccess {
			c.noteSuccess(rw.ms)
			if c.seats[rs.seat].gen == rw.gen {
				rs.gen = rw.gen
				if w.v > rs.acked {
					rs.acked = w.v
				}
			}
			w.ack(r)
		} else {
			c.noteFailure(rw.ms, r.Status)
			w.fail(r.Status)
		}
		c.wakeIfStale(w.st)
	}
	if next := rw.next; next != nil {
		rw.next = nil
		c.defer_(next.submit)
	}
	if w != nil {
		w.unref()
	}
}

// wakeIfStale re-wakes the rebuild loop when a write resolution leaves
// (or reveals) a stale replica on the extent. This closes the window the
// rebuild loop skips on purpose: a copy is never queued behind a pending
// chained write, so the write's own completion must re-trigger the pass
// that decides whether a copy is still needed.
func (c *Cluster) wakeIfStale(st *extentState) {
	if !c.closing && c.anyStale(st) {
		c.dirty.Fire()
	}
}

// readOp tracks one replicated read across failover attempts. Records
// are recycled through the cluster's free list once the read resolves.
type readOp struct {
	c     *Cluster
	st    *extentState
	io    *transport.IO
	out   *sim.Future[*transport.Result]
	tried uint64       // replica indices already tried
	ms    *memberState // occupant serving the current attempt
	ri    int          // its replica index
	fut   sim.Future[*transport.Result]
	done  func(*transport.Result)
	retry func(*sim.Proc)
	next  *readOp // free list
}

// getRead pops a read record, making one (its callbacks bound) when the
// free list is empty.
func (c *Cluster) getRead() *readOp {
	op := c.freeReads
	if op == nil {
		op = &readOp{c: c}
		op.done = op.resolved
		op.retry = op.resubmit
		return op
	}
	c.freeReads = op.next
	op.next = nil
	return op
}

// put returns the record to the free list.
func (op *readOp) put() {
	op.st, op.io, op.out, op.ms = nil, nil, nil, nil
	op.next = op.c.freeReads
	op.c.freeReads = op
}

// pickReplica returns the next untried eligible replica for st, -1 when
// none remain. Rotation spreads read load across the eligible set.
func (c *Cluster) pickReplica(st *extentState, tried uint64) int {
	n := len(st.repl)
	start := c.rr
	c.rr++
	for k := 0; k < n; k++ {
		ri := (start + k) % n
		if tried&(1<<uint(ri)) != 0 {
			continue
		}
		if c.eligible(st, ri) {
			return ri
		}
	}
	return -1
}

// resolved is the failover handler of one read attempt: a typed error
// marks the replica suspect and re-drives the read on the next eligible
// one; running out of replicas surfaces the last error.
func (op *readOp) resolved(r *transport.Result) {
	c := op.c
	if r.Status == nvme.StatusSuccess {
		c.noteSuccess(op.ms)
		c.reads++
		c.tel.Inc(telemetry.CtrReplReads)
		op.out.Resolve(r)
		op.put()
		return
	}
	c.noteFailure(op.ms, r.Status)
	op.tried |= 1 << uint(op.ri)
	next := c.pickReplica(op.st, op.tried)
	if next < 0 {
		op.out.Resolve(r)
		op.put()
		return
	}
	c.readFailovers++
	c.tel.Inc(telemetry.CtrReplReadFailovers)
	op.ri, op.ms = next, c.occupant(op.st.repl[next].seat)
	c.defer_(op.retry)
}

// resubmit sends the read to the replica the failover picked.
func (op *readOp) resubmit(p *sim.Proc) {
	op.fut.Arm(op.c.e)
	submitNow(p, op.ms.q, op.io, &op.fut)
	op.fut.OnResolve(op.done)
}

// stageRead routes one extent-contained read to an up-to-date replica:
// it is staged on that member's queue, which is returned for the caller
// to ring (nil when no replica can serve the read; out is resolved then).
func (c *Cluster) stageRead(p *sim.Proc, io *transport.IO, out *sim.Future[*transport.Result]) *memberState {
	st := c.extent(c.extentFor(io.Offset))
	ri := c.pickReplica(st, 0)
	if ri < 0 {
		io.Complete(out, transport.Result{Status: nvme.StatusNamespaceNotRdy})
		return nil
	}
	op := c.getRead()
	op.st, op.io, op.out, op.tried = st, io, out, 0
	op.ri, op.ms = ri, c.occupant(st.repl[ri].seat)
	op.fut.Arm(c.e)
	op.ms.q.SubmitInto(p, io, &op.fut)
	ms := op.ms // op may be recycled once the callback has run
	op.fut.OnResolve(op.done)
	return ms
}

// probeOutcome applies one probe's result to the member's health streak.
// gen fences stale feedback: once a probe at generation g has settled
// (typed answer, timeout, or late resolution), resolutions of probes
// OLDER than g are dropped — several overlapping hung probes resolving
// out of order must not flap noteSuccess/noteFailure against the streak
// a newer probe established. A probe's own late resolution (gen ==
// probeSeen after its timeout) still applies: a late success is the
// revival signal.
func (c *Cluster) probeOutcome(ms *memberState, gen int64, st nvme.Status) {
	if c.closing || gen < ms.probeSeen {
		return
	}
	ms.probeSeen = gen
	if st == nvme.StatusSuccess {
		c.noteSuccess(ms)
	} else {
		c.noteFailure(ms, st)
	}
}

// noteSuccess clears a member's failure streak and re-admits it when it
// was considered dead (a restarted target answering again). During
// teardown nothing revives: queue close completes outstanding I/O, and a
// late success must not re-seat a dead member or log fault events.
func (c *Cluster) noteSuccess(ms *memberState) {
	if c.closing {
		return
	}
	ms.misses = 0
	if ms.alive {
		return
	}
	ms.alive = true
	c.staleAll = true // its replicas count again, stale ones included
	c.replicaUps++
	c.tel.Inc(telemetry.CtrReplicaUp)
	c.tel.Trace(int64(c.e.Now()), telemetry.EvReplicaUp, 0, "", ms.name)
	if ms.seat < 0 {
		// Displaced while dead: rejoin as a spare and take over any
		// vacant seat immediately.
		c.spares = append(c.spares, ms.idx)
		c.fillVacantSeats()
		return
	}
	// Still the owner of its seat (no spare was free): resume it with
	// the generation intact — data written before the crash is still on
	// disk, so only the writes it missed rebuild.
	if c.seats[ms.seat].member < 0 {
		c.seats[ms.seat].member = ms.idx
	}
	c.kickRebuild(ms.name)
}

// noteFailure records a typed transient failure against a member and
// declares it dead once the miss threshold is crossed. Non-retryable
// statuses are command-level errors, not death signals.
func (c *Cluster) noteFailure(ms *memberState, st nvme.Status) {
	if c.closing {
		return
	}
	if !st.Retryable() && st != nvme.StatusAbortRequested {
		return
	}
	ms.misses++
	if ms.alive && ms.misses >= c.opts.ProbeMisses {
		c.declareDead(ms)
	}
}

// declareDead removes a member from service: its seat passes to a spare
// (bumping the seat generation so stale acks die with the old
// occupant), or stays vacant until one frees up.
func (c *Cluster) declareDead(ms *memberState) {
	ms.alive = false
	ms.misses = 0
	c.replicaDowns++
	c.tel.Inc(telemetry.CtrReplicaDown)
	c.tel.Trace(int64(c.e.Now()), telemetry.EvReplicaDown, 0, "", ms.name)
	if ms.seat < 0 {
		// A dead spare leaves the pool now; revival re-admits it through
		// noteSuccess, which would otherwise duplicate the stale entry
		// (and a duplicated spare can be seated at two seats at once).
		c.dropSpare(ms.idx)
		return
	}
	seat := ms.seat
	if sp := c.takeSpare(); sp != nil {
		c.installSeat(seat, sp)
		ms.seat = -1 // displaced; revives as a spare
	} else {
		// No spare: the seat goes vacant but the dead member keeps its
		// claim (ms.seat). Its data is intact across a crash, so if it
		// revives before a spare frees up it resumes the seat with the
		// generation intact and only the writes it missed rebuild.
		c.seats[seat].member = -1
	}
}

// installSeat seats member sp at seat, bumping the generation: every
// per-extent ack recorded against the previous occupant becomes stale,
// and the rebuild loop re-replicates what the new occupant is missing.
func (c *Cluster) installSeat(seat int, sp *memberState) {
	c.seats[seat].member = sp.idx
	c.seats[seat].gen++
	c.staleAll = true // every replica on the seat is stale now
	sp.seat = seat
	c.kickRebuild(sp.name)
}

// dropSpare removes member idx from the spare pool, if present.
func (c *Cluster) dropSpare(idx int) {
	for i, s := range c.spares {
		if s == idx {
			c.spares = append(c.spares[:i], c.spares[i+1:]...)
			return
		}
	}
}

// takeSpare pops the oldest live spare, nil when none.
func (c *Cluster) takeSpare() *memberState {
	for i, idx := range c.spares {
		ms := c.members[idx]
		if !ms.alive {
			continue
		}
		c.spares = append(c.spares[:i], c.spares[i+1:]...)
		return ms
	}
	return nil
}

// fillVacantSeats seats spares on any vacant seats. A seat whose dead
// owner still claims it (ms.seat == seat) is reassigned only to a
// spare; the owner loses its claim then.
func (c *Cluster) fillVacantSeats() {
	for s := range c.seats {
		if c.seats[s].member >= 0 {
			continue
		}
		sp := c.takeSpare()
		if sp == nil {
			return
		}
		// Strip the dead owner's claim, if any.
		for _, ms := range c.members {
			if ms.seat == s && ms.idx != sp.idx {
				ms.seat = -1
			}
		}
		c.installSeat(s, sp)
	}
}

// probeLoop keep-alive-probes one member: a typed failure OR a probe
// that hangs past ProbeTimeout counts a miss, an answer clears the
// streak (and revives a dead member). The deadline matters because a
// member transport mid-reconnect queues commands instead of failing
// them — without it a crashed target would never be declared dead, just
// silently stall its replicas.
func (c *Cluster) probeLoop(p *sim.Proc, ms *memberState) {
	for !c.closing {
		p.Sleep(c.opts.ProbeInterval)
		if c.closing {
			return
		}
		ms.probeGen++
		gen := ms.probeGen
		fut := transport.Submit(p, ms.q, &transport.IO{Admin: nvme.AdminKeepAlive})
		r, ok := fut.WaitTimeout(p, c.opts.ProbeTimeout)
		if c.closing {
			return
		}
		if !ok {
			c.probeOutcome(ms, gen, nvme.StatusTransientTransport)
			// The hung probe's eventual resolution still feeds back: a
			// late success is the revival signal after the target
			// restarts and the transport reconnects. probeOutcome drops
			// it if a newer probe has settled in the meantime.
			fut.OnResolve(func(lr *transport.Result) {
				c.probeOutcome(ms, gen, lr.Status)
			})
			continue
		}
		c.probeOutcome(ms, gen, r.Status)
	}
}

// Close tears the cluster down: daemons stop and every member queue
// closes (outstanding requests complete first). In-flight probes are
// fenced BEFORE the member queues close: queue teardown resolves hung
// keep-alives, and that feedback must not count spurious misses or log
// bogus fault events against a cluster that is going away.
func (c *Cluster) Close() {
	if c.closing {
		return
	}
	c.closing = true
	for _, ms := range c.members {
		ms.probeSeen = ms.probeGen + 1
	}
	c.workQ.Close()
	c.dirty.Fire()
	for _, ms := range c.members {
		ms.q.Close()
	}
}
