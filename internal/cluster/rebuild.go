package cluster

import (
	"math/bits"

	"nvmeoaf/internal/nvme"
	"nvmeoaf/internal/sim"
	"nvmeoaf/internal/telemetry"
	"nvmeoaf/internal/transport"
)

// Re-replication: a background loop that copies stale extents — those
// whose replica has not acknowledged the committed version under the
// current seat generation — from an up-to-date survivor to the seat's
// occupant. It runs as one engine daemon, woken whenever a replica is
// declared dead, promoted, or revived, and sweeps passes over the
// stale index (below) until a pass copies nothing. Copies ride the
// same per-(extent, seat) write chain as foreground writes, so a
// rebuild copy can never overwrite a newer concurrent write.

// kickRebuild wakes the rebuild loop (traced per triggering member).
func (c *Cluster) kickRebuild(member string) {
	c.tel.Trace(int64(c.e.Now()), telemetry.EvRebuildStart, 0, "", member)
	c.dirty.Fire()
}

// rebuildLoop drains the stale set whenever woken, then announces the
// cluster whole again.
func (c *Cluster) rebuildLoop(p *sim.Proc) {
	for {
		c.dirty.Wait(p)
		c.dirty.Reset()
		if c.closing {
			return
		}
		progressed := false
		for {
			n := c.rebuildPass(p)
			if c.closing {
				return
			}
			if n == 0 {
				break
			}
			progressed = true
		}
		if progressed && c.staleCount() == 0 {
			c.rebuildRounds++
			c.tel.Inc(telemetry.CtrRebuildRounds)
			c.tel.Trace(int64(c.e.Now()), telemetry.EvRebuildDone, 0, "", c.opts.Namespace)
		}
	}
}

// staleRepl reports whether replica ri of st needs a copy: the extent
// has committed data its seat occupant (live, present) has not
// acknowledged under the current generation.
func (c *Cluster) staleRepl(st *extentState, ri int) bool {
	c.staleChecks++
	if st.committed == 0 {
		return false
	}
	rs := &st.repl[ri]
	ms := c.occupant(rs.seat)
	if ms == nil || !ms.alive {
		return false // nothing to copy to until a member serves the seat
	}
	return rs.gen != c.seats[rs.seat].gen || rs.acked < st.committed
}

// The stale index keeps rebuild passes from walking every extent ever
// touched. Its invariant: every replica staleRepl reports is on an
// extent whose bit is set, or staleAll is. Only three events make a
// replica stale, and each marks: a quorum ack that advances committed
// marks its extent (writeOp.ack), and a seat changing hands
// (installSeat) or a member coming back to life (noteSuccess) sets
// staleAll. A bit is cleared only by a visit that finds the extent
// whole, so visiting set bits in position order visits the stale
// replicas the full first-touch-order scan would, in the same order.

// markStale sets st's bit in the stale index.
func (c *Cluster) markStale(st *extentState) {
	c.staleBits[st.pos>>6] |= 1 << uint(st.pos&63)
}

// clearStale clears st's bit in the stale index.
func (c *Cluster) clearStale(st *extentState) {
	c.staleBits[st.pos>>6] &^= 1 << uint(st.pos&63)
}

// nextStale returns the first position in [i, n) whose bit is set, -1
// when there is none. A pending staleAll is spread over every bit first,
// so a seat change in the middle of a pass reaches the positions ahead.
func (c *Cluster) nextStale(i, n int) int {
	if c.staleAll {
		c.staleAll = false
		for k := range c.staleBits {
			c.staleBits[k] = ^uint64(0)
		}
	}
	for i < n {
		if word := c.staleBits[i>>6] >> uint(i&63); word != 0 {
			if i += bits.TrailingZeros64(word); i < n {
				return i
			}
			return -1
		}
		i = (i>>6 + 1) << 6
	}
	return -1
}

// visitStale calls fn on every stale replica, in first-touch order over
// the extents that exist when it starts, and clears the bits of the
// extents it finds whole. fn must not block.
func (c *Cluster) visitStale(fn func(st *extentState, ri int)) {
	n := len(c.extentList)
	for i := c.nextStale(0, n); i >= 0; i = c.nextStale(i+1, n) {
		st := c.extentList[i]
		whole := true
		for ri := range st.repl {
			if c.staleRepl(st, ri) {
				whole = false
				fn(st, ri)
			}
		}
		if whole {
			c.clearStale(st)
		}
	}
	if c.indexProbe != nil {
		c.indexProbe()
	}
}

// staleCount counts extent replicas still awaiting a copy.
func (c *Cluster) staleCount() int {
	n := 0
	c.visitStale(func(*extentState, int) { n++ })
	return n
}

// rebuildPass visits the stale index once, copying every stale replica
// it can, and returns the number of successful copies. Extent order is
// the deterministic first-touch order, so rebuild schedules replay per
// seed.
func (c *Cluster) rebuildPass(p *sim.Proc) int {
	if c.indexProbe != nil {
		defer c.indexProbe()
	}
	copied := 0
	n := len(c.extentList)
	for i := c.nextStale(0, n); i >= 0; i = c.nextStale(i+1, n) {
		st := c.extentList[i]
		for ri := range st.repl {
			if c.closing {
				return copied
			}
			if !c.staleRepl(st, ri) {
				continue
			}
			if c.rebuildExtent(p, st, ri) {
				copied++
			}
		}
		// Copies block and the extent can change meanwhile, so it is
		// judged whole afresh.
		if !c.anyStale(st) {
			c.clearStale(st)
		}
	}
	return copied
}

// anyStale reports whether some replica of st is stale.
func (c *Cluster) anyStale(st *extentState) bool {
	for ri := range st.repl {
		if c.staleRepl(st, ri) {
			return true
		}
	}
	return false
}

// rebuildExtent copies one extent from an eligible survivor to the
// stale replica ri. The copy is conservative: it carries the source's
// acknowledged version at read-submit time, and the ack recorded on the
// destination never exceeds it — if the committed version advances
// mid-copy, the next pass copies again.
func (c *Cluster) rebuildExtent(p *sim.Proc, st *extentState, ri int) bool {
	src := -1
	for k := range st.repl {
		if k != ri && c.eligible(st, k) {
			src = k
			break
		}
	}
	if src == -1 {
		return false // no up-to-date survivor right now; retry next pass
	}
	srcRS := &st.repl[src]
	srcMS := c.occupant(srcRS.seat)
	dstRS := &st.repl[ri]
	dstMS := c.occupant(dstRS.seat)
	copyVer := srcRS.acked
	if copyVer == 0 || copyVer > st.committed {
		// Never read past what quorum committed; an extent whose source
		// ack predates a generation change re-resolves next pass.
		copyVer = st.committed
	}
	base := st.idx * c.opts.ExtentSize
	size := st.size
	if size <= 0 {
		return false
	}
	start := p.Now()
	// Rebuild traffic is system-internal: never charged to any tenant's
	// token budget (QoSExempt, and untenanted so it lands in the ambient
	// per-queue attribution if the member queue carries one).
	rio := &c.rbRead
	*rio = transport.IO{Offset: base, Size: size, QoSExempt: true}
	if c.opts.RetainData {
		rio.Data = make([]byte, size)
	}
	c.rbReadFut.Arm(c.e)
	submitNow(p, srcMS.q, rio, &c.rbReadFut)
	rr := c.rbReadFut.Wait(p)
	if rr.Status != nvme.StatusSuccess {
		c.noteFailure(srcMS, rr.Status)
		return false
	}
	c.noteSuccess(srcMS)
	// Re-check under the destination's current occupancy: the seat may
	// have changed hands, or a foreground write may have caught it up
	// while the read was in flight.
	if !c.staleRepl(st, ri) {
		return false
	}
	// Never queue a copy behind a pending chain entry: a foreground
	// write submitted while our source read was in flight carries a
	// NEWER version, and a copy applied after it would clobber that
	// version while the ack bookkeeping still reports it present (a
	// silent stale-read hole). The write's resolution re-wakes the
	// rebuild loop, which re-copies only if still needed.
	if dstRS.chain != nil && !dstRS.chain.fut.Resolved() {
		return false
	}
	dstMS = c.occupant(dstRS.seat)
	gen := c.seats[dstRS.seat].gen
	cp := &c.rbCopy
	cp.io = transport.IO{Write: true, Offset: base, Size: size, Data: rio.Data, NoFill: true, QoSExempt: true}
	cp.rs, cp.ms = dstRS, dstMS
	c.chainSubmit(p, cp)
	wr := cp.fut.Wait(p)
	if wr.Status != nvme.StatusSuccess {
		c.noteFailure(dstMS, wr.Status)
		return false
	}
	c.noteSuccess(dstMS)
	if c.seats[dstRS.seat].gen == gen {
		dstRS.gen = gen
		if copyVer > dstRS.acked {
			dstRS.acked = copyVer
		}
	}
	c.rebuildExtents++
	c.rebuildBytes += int64(size)
	c.tel.Inc(telemetry.CtrRebuildExtents)
	c.tel.Add(telemetry.CtrRebuildBytes, int64(size))
	c.tel.ObserveDuration(telemetry.HistRebuildCopy, p.Now().Sub(start))
	return true
}
