package session

import (
	"math"
	"slices"
	"testing"
	"time"

	"nvmeoaf/internal/model"
	"nvmeoaf/internal/netsim"
	"nvmeoaf/internal/nvme"
	"nvmeoaf/internal/pdu"
	"nvmeoaf/internal/sim"
	"nvmeoaf/internal/transport"
)

// attempt is one CID handed out (or taken back) at one instant.
type attempt struct {
	at  sim.Time
	cid uint16
}

// stubWire is the least a HostWire can be: reads, and writes with modelled
// in-capsule payload, one capsule per command. With record set it notes every attempt's start
// (MakeIOEntry runs right after alloc) and every teardown for retry.
type stubWire struct {
	h      *Host
	record bool
	starts []attempt
	reaps  []attempt
}

func (w *stubWire) BuildICReq(bool) *pdu.ICReq              { return &pdu.ICReq{} }
func (w *stubWire) AdoptICResp(*pdu.ICResp)                 {}
func (w *stubWire) Admit(*transport.IO) nvme.Status         { return nvme.StatusSuccess }
func (w *stubWire) StageSubmit(*sim.Proc, *Pending)         {}
func (w *stubWire) Transmit(p *sim.Proc, e *pdu.BatchEntry) { w.h.SendCapsule(p, e) }
func (w *stubWire) TransmitTrain(*sim.Proc, *pdu.CmdBatch)  { panic("stub wire: no trains") }
func (w *stubWire) PollBudget() time.Duration               { return 0 }
func (w *stubWire) PreReactor(*sim.Proc)                    {}
func (w *stubWire) HandlePDU(*sim.Proc, pdu.PDU, time.Duration) bool {
	return false
}

func (w *stubWire) MakeIOEntry(pend *Pending) pdu.BatchEntry {
	if w.record {
		w.starts = append(w.starts, attempt{w.h.e.Now(), pend.CID})
	}
	io := pend.IO
	nlb := uint32(io.Size / transport.BlockSize)
	if io.Write {
		return pdu.BatchEntry{Cmd: nvme.NewWrite(pend.CID, 1, uint64(io.Offset/transport.BlockSize), nlb), VirtualLen: io.Size}
	}
	return pdu.BatchEntry{Cmd: nvme.NewRead(pend.CID, 1, 0, nlb)}
}

func (w *stubWire) ReleaseAttempt(pend *Pending) {
	if w.record {
		w.reaps = append(w.reaps, attempt{w.h.e.Now(), pend.CID})
	}
}

// rig is a Host over a stub wire; the test plays the target on peer.
type rig struct {
	e    *sim.Engine
	h    *Host
	w    *stubWire
	peer *netsim.Endpoint
}

// instant is a link that costs no virtual time, so every event of a test
// falls on the nanosecond the test computes; busy adds only the per-message
// CPU that keeps the reactor off its loop while it transmits.
var (
	instant = model.LinkParams{WireBytesPerSec: math.Inf(1)}
	busy    = model.LinkParams{WireBytesPerSec: math.Inf(1), PerMsgCPU: 6 * time.Microsecond}
)

func newIdleRig(cfg HostConfig, link model.LinkParams) *rig {
	e := sim.NewEngine(1)
	l := netsim.NewLoopLink(e, link)
	w := &stubWire{}
	cfg.Label = "stub"
	w.h = NewHost(e, l.A, cfg, w)
	return &rig{e: e, h: w.h, w: w, peer: l.B}
}

func newRig(cfg HostConfig, link model.LinkParams) *rig {
	r := newIdleRig(cfg, link)
	r.h.Start()
	return r
}

// submit stages n 4 KiB reads and rings one doorbell for them.
func (r *rig) submit(p *sim.Proc, n int) []*sim.Future[*transport.Result] {
	futs := make([]*sim.Future[*transport.Result], n)
	for i := range futs {
		futs[i] = sim.NewFuture[*transport.Result](r.e)
		r.h.SubmitInto(p, &transport.IO{Size: 4096}, futs[i])
	}
	r.h.RingDoorbell(p)
	return futs
}

// serve plays the target: every command capsule that arrives goes to
// onCmd, on the peer's own process.
func (r *rig) serve(onCmd func(p *sim.Proc, cmd nvme.Command)) {
	r.e.GoDaemon("peer", func(p *sim.Proc) {
		var dec pdu.Decoder
		for {
			msg := r.peer.Recv(p)
			pdus, err := transport.DecodeAll(msg, &dec)
			if err != nil {
				panic(err)
			}
			msg.Release()
			for _, u := range pdus {
				if c, ok := u.(*pdu.CapsuleCmd); ok {
					onCmd(p, c.Cmd)
				}
			}
		}
	})
}

// respondAfter sends a successful completion for cid after d.
func (r *rig) respondAfter(d time.Duration, cid uint16) {
	r.e.Go("resp", func(q *sim.Proc) {
		q.Sleep(d)
		transport.SendPDUs(q, r.peer, &pdu.CapsuleResp{Rsp: nvme.Completion{CID: cid}})
	})
}

// countFires wraps the host's deadline callback: it counts the firings and
// checks that each is the one timer the host believed it had armed.
func (r *rig) countFires(t *testing.T) *int {
	fires := new(int)
	fire := r.h.onDeadline
	r.h.onDeadline = func() {
		if !r.h.timerArmed {
			t.Errorf("deadline timer fired at %v with none armed: more than one was outstanding", r.e.Now())
		}
		*fires++
		fire()
	}
	return fires
}

func sameAttempts(t *testing.T, what string, got, want []attempt) {
	t.Helper()
	if !slices.Equal(got, want) {
		t.Fatalf("%s: got %v, want %v", what, got, want)
	}
}

const us = sim.Time(time.Microsecond)

// Commands started at staggered times against a peer that never answers are
// each reaped at exactly start + CommandTimeout, by one timer that is armed
// once per deadline and not once per command.
func TestDeadlineTimerReapsOnTime(t *testing.T) {
	const timeout = time.Millisecond
	T := sim.Time(timeout)

	// A burst rung just before the oldest deadline keeps the reactor
	// transmitting while that deadline passes: it allocates CIDs while the
	// expiry waits for it. The commands behind the oldest must still be
	// reaped on their own deadlines, not on the burst's.
	t.Run("staggered", func(t *testing.T) {
		r := newRig(HostConfig{ConnOptions: ConnOptions{QueueDepth: 16, CommandTimeout: timeout}}, busy)
		defer r.e.Close()
		r.w.record = true
		fires := r.countFires(t)
		r.e.Go("app", func(p *sim.Proc) {
			for i := 0; i < 8; i++ {
				r.submit(p, 1)
				p.Sleep(100 * time.Microsecond)
			}
			p.Sleep(timeout - 800*time.Microsecond - 3*time.Microsecond)
			r.submit(p, 3)
		})
		if err := r.e.RunUntil(3 * T); err != nil {
			t.Fatal(err)
		}
		if len(r.w.starts) != 11 || len(r.w.reaps) != 11 {
			t.Fatalf("%d attempts started and %d reaped, want 11 and 11", len(r.w.starts), len(r.w.reaps))
		}
		for i, s := range r.w.starts {
			reap := r.w.reaps[i]
			if reap.cid != s.cid {
				t.Fatalf("reap %d took CID %d, want %d (start order)", i, reap.cid, s.cid)
			}
			if i == 0 {
				// The expiry that waited for the three transmits.
				if reap.at < s.at+T || reap.at >= r.w.starts[1].at+T {
					t.Errorf("oldest command reaped at %v, want within [%v, %v)", reap.at, s.at+T, r.w.starts[1].at+T)
				}
			} else if reap.at != s.at+T {
				t.Errorf("command %d started at %v reaped at %v, want %v", i, s.at, reap.at, s.at+T)
			}
		}
		if *fires != 11 || r.h.timerArmed {
			t.Errorf("%d timer firings for 11 deadlines (armed at the end: %v)", *fires, r.h.timerArmed)
		}
		if r.h.Timeouts != 11 {
			t.Errorf("Timeouts = %d, want 11", r.h.Timeouts)
		}
	})

	// CIDs come off the free list last-retired-first, and commands that
	// expire together are reaped in CID order whatever order they started in.
	t.Run("simultaneous", func(t *testing.T) {
		r := newRig(HostConfig{ConnOptions: ConnOptions{QueueDepth: 16, CommandTimeout: timeout}}, instant)
		defer r.e.Close()
		r.w.record = true
		fires := r.countFires(t)
		answered := 0
		r.serve(func(p *sim.Proc, cmd nvme.Command) {
			if cmd.CID != 1 && answered < 2 {
				answered++
				r.respondAfter(10*time.Microsecond, cmd.CID)
			}
		})
		r.e.Go("app", func(p *sim.Proc) {
			r.submit(p, 3) // CIDs 0 1 2; 0 and 2 complete, in that order
			p.Sleep(50 * time.Microsecond)
			r.submit(p, 3)
		})
		if err := r.e.RunUntil(3 * T); err != nil {
			t.Fatal(err)
		}
		sameAttempts(t, "starts", r.w.starts, []attempt{{0, 0}, {0, 1}, {0, 2}, {50 * us, 2}, {50 * us, 0}, {50 * us, 3}})
		sameAttempts(t, "reaps", r.w.reaps, []attempt{{T, 1}, {T + 50*us, 0}, {T + 50*us, 2}, {T + 50*us, 3}})
		if *fires != 2 || r.h.timerArmed {
			t.Errorf("%d timer firings for 2 deadlines over 6 commands (armed at the end: %v)", *fires, r.h.timerArmed)
		}
	})
}

// A response one nanosecond before the deadline completes the command; one
// nanosecond after, the command has been reaped and the response is late.
func TestDeadlineTimerResponseWins(t *testing.T) {
	const timeout = time.Millisecond
	for _, tc := range []struct {
		name               string
		after              time.Duration
		timeouts, lateMsgs int64
	}{
		{"before", timeout - 1, 0, 0},
		{"after", timeout + 1, 1, 1},
	} {
		t.Run(tc.name, func(t *testing.T) {
			r := newRig(HostConfig{ConnOptions: ConnOptions{QueueDepth: 4, CommandTimeout: timeout}}, instant)
			defer r.e.Close()
			first := true
			r.serve(func(p *sim.Proc, cmd nvme.Command) {
				if first {
					first = false
					r.respondAfter(tc.after, cmd.CID)
				}
			})
			var fut *sim.Future[*transport.Result]
			r.e.Go("app", func(p *sim.Proc) { fut = r.submit(p, 1)[0] })
			if err := r.e.RunUntil(sim.Time(timeout) + 10); err != nil {
				t.Fatal(err)
			}
			if r.h.Timeouts != tc.timeouts || r.h.LateMsgs != tc.lateMsgs {
				t.Errorf("Timeouts = %d, LateMsgs = %d; want %d, %d", r.h.Timeouts, r.h.LateMsgs, tc.timeouts, tc.lateMsgs)
			}
			res, done := fut.Value()
			if won := tc.timeouts == 0; done != won {
				t.Fatalf("command resolved: %v, want %v", done, won)
			}
			if done && (res.Status != nvme.StatusSuccess || res.Latency != tc.after) {
				t.Errorf("completed with %v after %v, want success after %v", res.Status, res.Latency, tc.after)
			}
		})
	}
}

// A command's deadline costs no allocation: a steady submit -> complete
// cycle allocates the same with CommandTimeout set and unset.
func TestDeadlineTimerAllocsEqual(t *testing.T) {
	cycleAllocs := func(timeout time.Duration) float64 {
		r := newRig(HostConfig{ConnOptions: ConnOptions{QueueDepth: 4, CommandTimeout: timeout}, Host: model.DefaultHost()}, model.Loopback())
		defer r.e.Close()
		resp := &pdu.CapsuleResp{}
		r.serve(func(p *sim.Proc, cmd nvme.Command) {
			resp.Rsp.CID = cmd.CID
			transport.SendPDUs(p, r.peer, resp)
		})
		var allocs float64
		r.e.Go("app", func(p *sim.Proc) {
			io := &transport.IO{Size: 4096}
			fut := sim.NewFuture[*transport.Result](r.e)
			cycle := func() {
				r.h.SubmitInto(p, io, fut)
				r.h.RingDoorbell(p)
				if res := fut.Wait(p); res.Status != nvme.StatusSuccess {
					t.Errorf("cycle completed with %v", res.Status)
				}
				fut.Arm(r.e)
			}
			for i := 0; i < 64; i++ {
				cycle() // warm the pools, and let the timer fire and re-arm
			}
			allocs = testing.AllocsPerRun(500, cycle)
		})
		if err := r.e.Run(); err != nil {
			t.Fatal(err)
		}
		if timeout > 0 && r.e.Now() < sim.Time(4*timeout) {
			t.Fatalf("run ended at %v: the timer never came round", r.e.Now())
		}
		return allocs
	}
	off, on := cycleAllocs(0), cycleAllocs(200*time.Microsecond)
	if on != off {
		t.Errorf("a cycle allocates %.0f objects with CommandTimeout set, %.0f without", on, off)
	}
}

// TestHostCommandAllocatesNothing is the host side's allocation budget: a
// steady-state 4 KiB read (its payload copied into the caller's buffer)
// and a 4 KiB write, each staged with SubmitInto into a re-armed future,
// rung, and completed through the connection's decoder, allocate nothing.
// The result lives in the caller's IO.
func TestHostCommandAllocatesNothing(t *testing.T) {
	r := newRig(HostConfig{ConnOptions: ConnOptions{QueueDepth: 4}, Host: model.DefaultHost()}, instant)
	defer r.e.Close()
	payload := make([]byte, 4096)
	for i := range payload {
		payload[i] = byte(i)
	}
	data := &pdu.Data{Dir: pdu.TypeC2HData, Payload: payload, Last: true}
	resp := &pdu.CapsuleResp{}
	r.serve(func(p *sim.Proc, cmd nvme.Command) {
		resp.Rsp.CID = cmd.CID
		if cmd.Opcode == nvme.OpRead {
			data.CID = cmd.CID
			transport.SendPDUs(p, r.peer, data, resp)
			return
		}
		transport.SendPDUs(p, r.peer, resp)
	})
	var readAllocs, writeAllocs float64
	r.e.Go("app", func(p *sim.Proc) {
		read := &transport.IO{Size: 4096, Data: make([]byte, 4096)}
		write := &transport.IO{Write: true, Offset: 4096, Size: 4096}
		fut := sim.NewFuture[*transport.Result](r.e)
		cycle := func(io *transport.IO) {
			r.h.SubmitInto(p, io, fut)
			r.h.RingDoorbell(p)
			if res := fut.Wait(p); res.Status != nvme.StatusSuccess {
				t.Errorf("cycle completed with %v", res.Status)
			}
			fut.Arm(r.e)
		}
		readCycle := func() { cycle(read) }
		writeCycle := func() { cycle(write) }
		for i := 0; i < 64; i++ {
			readCycle()
			writeCycle()
		}
		readAllocs = testing.AllocsPerRun(200, readCycle)
		writeAllocs = testing.AllocsPerRun(200, writeCycle)
		if !slices.Equal(read.Data, payload) {
			t.Error("read payload did not reach the caller's buffer")
		}
	})
	if err := r.e.Run(); err != nil {
		t.Fatal(err)
	}
	t.Logf("4 KiB read %.0f allocs, 4 KiB write %.0f allocs", readAllocs, writeAllocs)
	if readAllocs != 0 || writeAllocs != 0 {
		t.Errorf("host side allocates per command: read %.0f, write %.0f, want 0", readAllocs, writeAllocs)
	}
}

// A Data PDU whose offset lies beyond the command's buffer (a late PDU that
// reached the CID's next owner) is counted and dropped, not copied: with
// recovery on the command re-drives, without it completes.
func TestDataBeyondBufferIsDropped(t *testing.T) {
	for _, tc := range []struct {
		name    string
		timeout time.Duration
		retries int64
	}{
		{"recovery-off", 0, 0},
		{"recovery-on", time.Millisecond, 1},
	} {
		t.Run(tc.name, func(t *testing.T) {
			r := newRig(HostConfig{ConnOptions: ConnOptions{QueueDepth: 4, CommandTimeout: tc.timeout}}, instant)
			defer r.e.Close()
			first := true
			r.serve(func(p *sim.Proc, cmd nvme.Command) {
				if first {
					first = false
					transport.SendPDUs(p, r.peer, &pdu.Data{Dir: pdu.TypeC2HData, CID: cmd.CID, Offset: 131072, Payload: make([]byte, 4096)})
				}
				transport.SendPDUs(p, r.peer, &pdu.CapsuleResp{Rsp: nvme.Completion{CID: cmd.CID}})
			})
			fut := sim.NewFuture[*transport.Result](r.e)
			r.e.Go("app", func(p *sim.Proc) {
				r.h.SubmitInto(p, &transport.IO{Size: 8192, Data: make([]byte, 8192)}, fut)
				r.h.RingDoorbell(p)
			})
			if err := r.e.Run(); err != nil {
				t.Fatal(err)
			}
			if res, done := fut.Value(); !done || res.Status != nvme.StatusSuccess {
				t.Fatalf("command done: %v, result %+v", done, res)
			}
			if r.h.LateMsgs != 1 || r.h.Retries != tc.retries {
				t.Errorf("LateMsgs = %d, Retries = %d; want 1, %d", r.h.LateMsgs, r.h.Retries, tc.retries)
			}
		})
	}
}
