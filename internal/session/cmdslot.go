package session

import (
	"time"

	"nvmeoaf/internal/mempool"
	"nvmeoaf/internal/nvme"
	"nvmeoaf/internal/pdu"
	"nvmeoaf/internal/sim"
	"nvmeoaf/internal/ssd"
	"nvmeoaf/internal/target"
	"nvmeoaf/internal/telemetry"
)

// CmdSlot is the target's home for one command from dispatch until its
// last PDU is on the wire: the device request, the reserved pool
// elements, the response capsule, the R2T, C2H data or shared-memory
// notify PDUs, and what the command's device worker needs. It plays the
// part of SPDK's per-qpair request tracker. A connection keeps its slots on a free list that grows
// to its peak number of commands in flight, so serving a command
// allocates none of these. Slots are not indexed by CID: a host may reuse
// a CID while the target still executes the attempt it gave up on.
//
// A slot has holders: the command itself, from Acquire until it calls
// Release, and every queued message whose PDUs live in the slot, until
// the message is on the wire or a teardown drops it. When the last
// holder lets go, the slot's pool elements return to the pool (unless
// FreeBufs returned them earlier) and the slot to the free list.
type CmdSlot struct {
	c *Conn
	// Cmd is the command and Size its payload length in bytes.
	Cmd  nvme.Command
	Size int
	// comm is the fabric transit accounted to the command: its capsule's,
	// plus every data PDU's for a reassembled write.
	comm time.Duration
	// Bufs are the pool elements reserved for the payload, in payload
	// order. The slot owns the backing array.
	Bufs []mempool.Buf
	// Staged marks real write payload scattered into Bufs; CopyTime sums
	// the shared-memory copies of a write's payload.
	Staged   bool
	CopyTime time.Duration

	pins     int    // holders, see above
	received int    // write payload bytes arrived so far
	data     []byte // a write's payload for the device (nil when modeled)
	req      ssd.Request
	resp     pdu.CapsuleResp
	r2t      pdu.R2T
	notify   pdu.SHMNotify
	chunks   []pdu.Data // a read's C2H PDUs, one per chunk

	// Parked for buffers (see Conn.reserve).
	need  int
	since sim.Time
	then  func(*CmdSlot)
	// The device worker (see Conn.Exec).
	worker  string
	work    Work
	runWork func(w *sim.Proc) // s.run, bound once
}

// Work is what a device worker does with a command's slot. A wire binds
// each of its paths once, so dispatching a command allocates no closure.
type Work func(w *sim.Proc, s *CmdSlot)

// Acquire gives a command a slot, held by the command until it calls
// Release.
func (c *Conn) Acquire(cmd nvme.Command, size int, transit time.Duration) *CmdSlot {
	var s *CmdSlot
	if n := len(c.free); n > 0 {
		s, c.free[n-1] = c.free[n-1], nil
		c.free = c.free[:n-1]
	} else {
		s = &CmdSlot{c: c}
		s.runWork = s.run
	}
	s.Cmd, s.Size, s.comm, s.pins = cmd, size, transit, 1
	return s
}

// Release drops one hold on the slot: the command's own, once it has
// posted its last PDU or been abandoned. The last release frees the
// slot's remaining pool elements and returns the slot to the free list.
func (s *CmdSlot) Release() {
	s.pins--
	switch {
	case s.pins > 0:
		return
	case s.pins < 0:
		panic("session: command slot released more often than held")
	}
	s.FreeBufs()
	s.Staged, s.CopyTime, s.received, s.data = false, 0, 0, nil
	s.c.free = append(s.c.free, s)
}

// FreeBufs returns the slot's pool elements now, ahead of the release.
func (s *CmdSlot) FreeBufs() {
	for _, b := range s.Bufs {
		b.Free()
	}
	clear(s.Bufs)
	s.Bufs = s.Bufs[:0]
}

// Post enqueues one or two PDUs as one outbound message, like Conn.Post,
// for PDUs that live in the slot: the message holds the slot until it is
// on the wire.
func (s *CmdSlot) Post(pdus ...pdu.PDU) { s.c.post(s, pdus) }

// Resp fills the slot's response capsule with res and the timing trailer
// and returns it. The target's shared-memory copy time is accounted as
// target-side "other" (buffer management).
func (s *CmdSlot) Resp(res target.ExecResult, copyTime time.Duration) *pdu.CapsuleResp {
	s.resp = pdu.CapsuleResp{
		Rsp:        res.CQE,
		IOTimeNs:   uint64(res.IOTime),
		TgtCommNs:  uint64(s.comm),
		TgtOtherNs: uint64(res.OtherTime + copyTime),
	}
	return &s.resp
}

// Notify stores n as the slot's shared-memory notify and returns it, for
// a wire that posts payload notifications through the slot (see Post).
func (s *CmdSlot) Notify(n pdu.SHMNotify) *pdu.SHMNotify {
	s.notify = n
	return &s.notify
}

// Fail answers the command with a bare status and releases it. Free the
// buffers first where they must return before the answer is on the wire.
func (s *CmdSlot) Fail(st nvme.Status) {
	s.resp = pdu.CapsuleResp{Rsp: nvme.Completion{CID: s.Cmd.CID, Status: st}}
	s.Post(&s.resp)
	s.Release()
}

// Execute runs the command against the served subsystem through the
// slot's device request (see target.Target.ExecuteAs for data).
func (s *CmdSlot) Execute(w *sim.Proc, data []byte) target.ExecResult {
	c := s.c
	return c.t.tgt.ExecuteAs(w, c.t.cfg.NQN, c.tenant, s.Cmd, data, &s.req)
}

// Exec reserves need pool buffers for the slot's command (see reserve)
// and then runs work on a device worker named name.
func (c *Conn) Exec(s *CmdSlot, need int, name string, work Work) {
	s.worker, s.work = name, work
	c.reserve(s, need, (*CmdSlot).spawn)
}

func (s *CmdSlot) spawn()          { s.c.t.e.Go(s.worker, s.runWork) }
func (s *CmdSlot) run(w *sim.Proc) { s.work(w, s) }

// reserve takes need pool buffers for s, then calls then(s). Under
// exhaustion the command parks in the wait queue (flow-control
// back-pressure); past MaxBufferWaiters the server sheds it with a
// retryable typed error instead of queueing without bound.
func (c *Conn) reserve(s *CmdSlot, need int, then func(*CmdSlot)) {
	if need == 0 || c.takeBufs(s, need) {
		then(s)
		return
	}
	if max := c.t.cfg.MaxBufferWaiters; max > 0 && c.WaitsQ.Len() >= max {
		c.t.Shed++
		c.t.tel.Inc(telemetry.CtrSrvShed)
		c.t.tel.Trace(int64(c.t.e.Now()), telemetry.EvShed, s.Cmd.CID, "", "pool-exhausted")
		if c.tenant != "" {
			// A shed buffer wait is work this tenant caused and wasted:
			// count it against the tenant and debit its bucket for the
			// buffers it tried to pin, so a flood of oversized waits
			// cannot starve the pool for free.
			c.tview.Inc(telemetry.TCtrSheds)
			if sh := c.t.cfg.QoS; sh != nil {
				now := int64(c.t.e.Now())
				sh.Bucket(c.tenant, now).Penalize(now, int64(need*c.t.cfg.ChunkSize))
			}
		}
		s.Fail(nvme.StatusCommandInterrupted)
		return
	}
	c.t.BufferWaits++
	c.t.tel.Inc(telemetry.CtrSrvBufWaits)
	s.need, s.since, s.then = need, c.t.e.Now(), then
	c.WaitsQ.TryPut(s)
}

// takeBufs reserves n pool elements for s, all or nothing.
func (c *Conn) takeBufs(s *CmdSlot, n int) bool {
	pool := c.t.cfg.Pool
	if pool.Available() < n {
		return false
	}
	for i := 0; i < n; i++ {
		b, _ := pool.Get() // n elements are free
		s.Bufs = append(s.Bufs, b)
	}
	return true
}
