package session

import (
	"math/rand"
	"testing"
	"time"

	"nvmeoaf/internal/sim"
	"nvmeoaf/internal/transport"
)

// The slot table against a plain map and slice: random alloc / retire /
// expire sequences keep live CIDs unique and the live count equal to the
// model's, hand out CIDs last-retired-first, and keep a Ticket live from
// alloc to retire and never again, whoever is issued the CID afterwards. A
// CID from the wire that is unknown, or beyond the queue depth, is "not
// found" and never an index panic.
func TestSlotTableMatchesModel(t *testing.T) {
	const depth, timeout = 8, time.Millisecond
	type owner struct {
		pend     *Pending
		tk       Ticket
		deadline sim.Time
	}
	for seed := int64(1); seed <= 20; seed++ {
		// The reactor is never started: the test is the only caller of
		// alloc, retire and reapExpired.
		r := newIdleRig(HostConfig{ConnOptions: ConnOptions{QueueDepth: depth, CommandTimeout: timeout}}, instant)
		e, h, rng := r.e, r.h, rand.New(rand.NewSource(seed))

		live := map[uint16]owner{}
		var dead []Ticket
		free := make([]uint16, 0, depth)
		for cid := depth - 1; cid >= 0; cid-- {
			free = append(free, uint16(cid))
		}
		retired := func(cid uint16) {
			dead = append(dead, live[cid].tk)
			delete(live, cid)
			free = append(free, cid)
		}
		check := func(op string) {
			t.Helper()
			if h.live() != len(live) {
				t.Errorf("seed %d after %s: %d CIDs live, model has %d", seed, op, h.live(), len(live))
			}
			for cid, o := range live {
				if pend, ok := h.Live(o.tk); !ok || pend != o.pend {
					t.Errorf("seed %d after %s: ticket of live CID %d is dead", seed, op, cid)
				}
				if pend, ok := h.LookupPending(cid); !ok || pend != o.pend {
					t.Errorf("seed %d after %s: live CID %d not found", seed, op, cid)
				}
			}
			for _, tk := range dead {
				if _, ok := h.Live(tk); ok {
					t.Errorf("seed %d after %s: retired ticket %+v is live again", seed, op, tk)
				}
			}
		}

		e.Go("model", func(p *sim.Proc) {
			for step := 0; step < 400 && !t.Failed(); step++ {
				switch op := rng.Intn(10); {
				case op < 5 && len(live) < depth:
					pend := &Pending{Pending: transport.Pending{IO: &transport.IO{Size: 4096}, Fut: sim.NewFuture[*transport.Result](e)}}
					h.alloc(pend)
					want := free[len(free)-1]
					free = free[:len(free)-1]
					if _, dup := live[pend.CID]; dup || pend.CID != want {
						t.Errorf("seed %d: alloc handed out CID %d (in flight: %v), want %d", seed, pend.CID, dup, want)
					}
					tk, ok := h.TicketOf(pend.CID)
					if !ok {
						t.Errorf("seed %d: no ticket for CID %d just allocated", seed, pend.CID)
					}
					live[pend.CID] = owner{pend, tk, p.Now().Add(timeout)}
					check("alloc")
				case op < 8:
					// A completion off the wire: any CID, in flight or not.
					cid := uint16(rng.Intn(depth + 2))
					if rng.Intn(8) == 0 {
						cid = uint16(rng.Intn(1 << 16))
					}
					o, inFlight := live[cid]
					if got := h.retire(cid); got != o.pend {
						t.Errorf("seed %d: retire(%d) = %p, want %p", seed, cid, got, o.pend)
					}
					if _, ok := h.TicketOf(cid); ok {
						t.Errorf("seed %d: CID %d still has a ticket after retire", seed, cid)
					}
					if inFlight {
						retired(cid)
					}
					check("retire")
				default:
					// Let time pass, then reap as the reactor would: every
					// command past its deadline, in CID order.
					p.Sleep(time.Duration(rng.Int63n(int64(timeout))))
					h.reapExpired(p)
					for cid := uint16(0); cid < depth; cid++ {
						if o, ok := live[cid]; ok && o.deadline <= p.Now() {
							retired(cid)
						}
					}
					check("expire")
				}
			}
		})
		if err := e.Run(); err != nil {
			t.Fatal(err)
		}
		e.Close()
	}
}
