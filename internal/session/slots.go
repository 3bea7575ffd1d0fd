package session

import "nvmeoaf/internal/sim"

// slot is one entry of the host's command table, indexed by CID (SPDK's
// request tracker, preallocated per queue entry). A command holds it while
// pend is set; gen counts the times the CID has been handed out.
type slot struct {
	pend     *Pending
	gen      uint32
	deadline sim.Time
}

// Ticket names one attempt of one command. CIDs are reissued and pending
// ops recycled, so a wire that comes back to a command after yielding (a
// delayed post, a merged completion) holds a Ticket and asks Host.Live.
type Ticket struct {
	CID uint16
	gen uint32
}

// live returns the number of CIDs in flight.
func (h *Host) live() int { return len(h.slots) - len(h.freeCIDs) }

// alloc and retire are the only two places a CID changes hands. alloc
// starts one attempt: pend gets the CID retired last and, with
// CommandTimeout set, a deadline. The caller checked canStart.
func (h *Host) alloc(pend *Pending) {
	n := len(h.freeCIDs) - 1
	pend.CID = h.freeCIDs[n]
	h.freeCIDs = h.freeCIDs[:n]
	s := &h.slots[pend.CID]
	s.pend, s.deadline = pend, h.e.Now().Add(h.cfg.CommandTimeout)
	s.gen++
	// CommandTimeout is one value per host, so deadlines fall in start
	// order: an armed timer already waits for an older command.
	if h.cfg.CommandTimeout > 0 && !h.timerArmed {
		h.watchDeadlines()
	}
}

// retire ends the attempt that holds cid, deadline included, and frees the
// CID. The CID may come from the wire: nil when no command holds it.
func (h *Host) retire(cid uint16) *Pending {
	pend, ok := h.LookupPending(cid)
	if ok {
		h.slots[cid].pend = nil
		h.freeCIDs = append(h.freeCIDs, cid)
	}
	return pend
}

// LookupPending resolves an in-flight command by the CID of a wire PDU.
func (h *Host) LookupPending(cid uint16) (*Pending, bool) {
	if int(cid) >= len(h.slots) {
		return nil, false
	}
	pend := h.slots[cid].pend
	return pend, pend != nil
}

// TicketOf returns the Ticket of the attempt that holds cid now.
func (h *Host) TicketOf(cid uint16) (Ticket, bool) {
	if _, ok := h.LookupPending(cid); !ok {
		return Ticket{}, false
	}
	return Ticket{CID: cid, gen: h.slots[cid].gen}, true
}

// Live returns the command of tk's attempt, and false once that attempt
// has completed or been reaped, whoever holds the CID since.
func (h *Host) Live(tk Ticket) (*Pending, bool) {
	pend, ok := h.LookupPending(tk.CID)
	if !ok || h.slots[tk.CID].gen != tk.gen {
		return nil, false
	}
	return pend, true
}

// watchDeadlines is the host's one deadline timer, and what alloc and
// reapExpired call when it is not armed. It never waits for one command in
// particular but for the earliest deadline in flight, so an expiry still
// waiting for the reactor is found again rather than overtaken. The reactor
// is kicked only when a command is really due: a spurious kick burns
// PollMissCPU of virtual time.
func (h *Host) watchDeadlines() {
	h.timerArmed = false
	earliest := sim.MaxTime
	for i := range h.slots {
		if s := &h.slots[i]; s.pend != nil && s.deadline < earliest {
			earliest = s.deadline
		}
	}
	switch {
	case earliest == sim.MaxTime: // nothing in flight
	case earliest <= h.e.Now():
		h.expiryDue = true
		h.kick.Fire()
	default:
		h.timerArmed = true
		h.e.At(earliest, h.onDeadline)
	}
}
