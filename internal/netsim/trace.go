package netsim

import (
	"fmt"
	"strings"

	"nvmeoaf/internal/pdu"
	"nvmeoaf/internal/sim"
)

// Tracer records the protocol exchange on an endpoint: every transmitted
// and received message, decoded to its PDUs, with virtual timestamps. It
// is the transport-debugging tool one would build into a real NVMe-oF
// stack (SPDK's nvmf trace points); attach with Endpoint.AttachTracer.
type Tracer struct {
	// Name labels the traced endpoint.
	Name   string
	events []TraceEvent
}

// traceLimit bounds the events one tracer retains.
const traceLimit = 4096

// TraceEvent is one message in the trace.
type TraceEvent struct {
	At   sim.Time
	Dir  string // "tx" or "rx"
	PDUs []pdu.Type
	CIDs []uint16
	Wire int
}

// NewTracer creates a tracer that retains the first traceLimit events.
func NewTracer(name string) *Tracer { return &Tracer{Name: name} }

// record appends one event, decoding the message's PDUs.
func (t *Tracer) record(at sim.Time, dir string, msg *Message) {
	if len(t.events) >= traceLimit {
		return
	}
	ev := TraceEvent{At: at, Dir: dir, Wire: msg.wireSize()}
	buf := msg.Data
	for len(buf) > 0 {
		p, n, err := pdu.Decode(buf)
		if err != nil {
			break
		}
		ev.PDUs = append(ev.PDUs, p.Type())
		ev.CIDs = append(ev.CIDs, pduCID(p))
		buf = buf[n:]
	}
	t.events = append(t.events, ev)
}

// pduCID extracts the command identifier a PDU refers to, if any.
func pduCID(p pdu.PDU) uint16 {
	switch v := p.(type) {
	case *pdu.CapsuleCmd:
		return v.Cmd.CID
	case *pdu.CapsuleResp:
		return v.Rsp.CID
	case *pdu.Data:
		return v.CID
	case *pdu.R2T:
		return v.CID
	case *pdu.SHMNotify:
		return v.CID
	case *pdu.SHMRelease:
		return v.CID
	default:
		return 0
	}
}

// Events returns the recorded events.
func (t *Tracer) Events() []TraceEvent { return t.events }

// String renders the trace, one line per message.
func (t *Tracer) String() string {
	var b strings.Builder
	fmt.Fprintf(&b, "trace %s (%d messages)\n", t.Name, len(t.events))
	for _, ev := range t.events {
		fmt.Fprintf(&b, "  %10s %-2s %4dB ", ev.At, ev.Dir, ev.Wire)
		for i, p := range ev.PDUs {
			if i > 0 {
				b.WriteString(" + ")
			}
			fmt.Fprintf(&b, "%v(cid=%d)", p, ev.CIDs[i])
		}
		b.WriteByte('\n')
	}
	return b.String()
}

// AttachTracer starts recording this endpoint's traffic.
func (ep *Endpoint) AttachTracer(t *Tracer) { ep.tracer = t }
