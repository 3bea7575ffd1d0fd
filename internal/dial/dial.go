// Package dial opens NVMe-oF connections by fabric kind. The fabric is a
// property of the connection (the paper's Connection Manager picks it at
// connect time, §4); everything above is one session. This package is
// that choice and the only non-test code that names a wire binding
// (internal/core, which carries the tcp and adaptive kinds, and
// internal/rdma): internal/world owns machines, NICs and links; callers
// describe the connection once in Options and call Serve and Connect.
package dial

import (
	"fmt"
	"time"

	"nvmeoaf/internal/core"
	"nvmeoaf/internal/mempool"
	"nvmeoaf/internal/model"
	"nvmeoaf/internal/netsim"
	"nvmeoaf/internal/nvme"
	"nvmeoaf/internal/qos"
	"nvmeoaf/internal/rdma"
	"nvmeoaf/internal/session"
	"nvmeoaf/internal/shm"
	"nvmeoaf/internal/sim"
	"nvmeoaf/internal/target"
	"nvmeoaf/internal/transport"
)

// Kind names a fabric.
type Kind string

// The evaluated fabrics.
const (
	TCP10G  Kind = "tcp-10g"
	TCP25G  Kind = "tcp-25g"
	TCP100G Kind = "tcp-100g"
	RDMA56  Kind = "rdma-ib56"
	RoCE100 Kind = "roce-100g"
	OAF     Kind = "nvme-oaf"
	// OAFRDMACtl is the paper's future-work variant (§5.5, §8): the
	// adaptive fabric's control plane runs over an intra-node RDMA path
	// instead of loopback TCP, attacking the control-message overhead
	// that dominates oAF at small I/O sizes.
	OAFRDMACtl Kind = "nvme-oaf-rdmactl"
)

// kinds is the serve/connect table: each fabric's NVMe-oF transport type,
// which picks its wire binding (core for TCP and adaptive, else rdma), and
// its native link model — on RDMA hardware, its rdma parameters' link.
var kinds = map[Kind]struct {
	trType uint8
	link   func() model.LinkParams
	rdma   func() model.RDMAParams
}{
	TCP10G:     {nvme.TrTypeTCP, model.TCP10G, nil},
	TCP25G:     {nvme.TrTypeTCP, model.TCP25G, nil},
	TCP100G:    {nvme.TrTypeTCP, model.TCP100G, nil},
	RDMA56:     {nvme.TrTypeRDMA, nil, model.RDMA56G},
	RoCE100:    {nvme.TrTypeRDMA, nil, model.RoCE100G},
	OAF:        {nvme.TrTypeAdaptive, model.Loopback, nil},
	OAFRDMACtl: {nvme.TrTypeAdaptive, nil, model.RDMA56G},
}

// Link returns the fabric's native link model. For the adaptive kind that
// is the co-located loopback; internal/world picks the link a pair placed
// on different machines actually rides.
func (k Kind) Link() (model.LinkParams, error) {
	ent, ok := kinds[k]
	switch {
	case !ok:
		return model.LinkParams{}, fmt.Errorf("dial: unknown fabric %q", k)
	case ent.link == nil:
		return rdma.LinkParams(ent.rdma()), nil
	}
	return ent.link(), nil
}

// Adaptive reports whether k is NVMe-oAF: connections that carry a
// shared-memory Design and, when co-located, a Region.
func (k Kind) Adaptive() bool { return kinds[k].trType == nvme.TrTypeAdaptive }

// Defaults applies the zero-value rules every front end shares: no kind
// is NVMe-oAF, and an adaptive kind with no shared-memory design runs
// shm-0-copy, the paper's headline configuration.
func Defaults(k Kind, d core.Design) (Kind, core.Design) {
	if k == "" {
		k = OAF
	}
	if k.Adaptive() && d == core.DesignTCP {
		d = core.DesignSHMZeroCopy
	}
	return k, d
}

// Options describes one connection, both ends. The embedded ConnOptions
// is the host queue; its NQN and Telemetry also name the subsystem served
// and the sink the target side reports to.
type Options struct {
	Kind Kind
	session.ConnOptions

	// TargetQoS, OnCrash, KATO and MaxBufferWaiters are the serving side's
	// session.ServeOptions fields of the same meaning (TargetQoS is its
	// QoS).
	TargetQoS        *qos.Shaper
	OnCrash          func()
	KATO             time.Duration
	MaxBufferWaiters int

	// TP holds the TCP-channel knobs of the tcp and adaptive kinds (zero
	// value = model.DefaultTCPTransport()); every kind takes its
	// submission/reap coalescing depth from TP.BatchSize.
	TP model.TCPTransportParams

	// RDMA overrides the fabric parameters an rdma kind's host queue
	// posts with (nil = the kind's model default). RegCache, Merge and
	// DynDoorbell enable the RDMA fast path (see rdma.ClientConfig).
	RDMA                         *model.RDMAParams
	RegCache, Merge, DynDoorbell bool

	// Design, Fabric and Region are the adaptive kinds' shared-memory
	// design, region registry (target-side locality check) and the
	// pair's hotplugged region (nil = remote pair, TCP data path).
	Design core.Design
	Fabric *core.Fabric
	Region *shm.Region
}

// Server is the target side of one served endpoint: the session engine
// (counters, crash/restart, live batch knob) and the binding's data
// buffer pool (nil for rdma: direct placement, no pool).
type Server struct {
	*session.Target
	Pool *mempool.Pool
}

// Serve starts o.Kind's target-side transport for tgt on ep. Kind.Link is
// where a builder learns that a kind is unknown; serving one is a bug.
func Serve(e *sim.Engine, tgt *target.Target, ep *netsim.Endpoint, o Options) *Server {
	ent, ok := kinds[o.Kind]
	if !ok {
		panic(fmt.Sprintf("dial: Serve on unknown fabric %q", o.Kind))
	}
	so := session.ServeOptions{
		NQN: o.NQN, KATO: o.KATO, MaxBufferWaiters: o.MaxBufferWaiters,
		Telemetry: o.Telemetry, QoS: o.TargetQoS, OnCrash: o.OnCrash,
	}
	var s *Server
	switch ent.trType {
	case nvme.TrTypeTCP, nvme.TrTypeAdaptive:
		b := core.NewServer(e, tgt, core.ServerConfig{ServeOptions: so, TrType: ent.trType, Design: o.Design, Fabric: o.Fabric, TP: o.TP})
		s = &Server{b.Target, b.Pool()}
	case nvme.TrTypeRDMA:
		s = &Server{Target: rdma.NewServer(e, tgt, rdma.ServerConfig{ServeOptions: so, BatchSize: o.TP.BatchSize}).Target}
	}
	s.Target.Serve(ep)
	return s
}

// Connect opens o.Kind's host queue over ep; the calling process drives
// the handshake.
func Connect(p *sim.Proc, ep *netsim.Endpoint, o Options) (q transport.Queue, err error) {
	ent, ok := kinds[o.Kind]
	if !ok {
		return nil, fmt.Errorf("dial: unknown fabric %q", o.Kind)
	}
	switch ent.trType {
	case nvme.TrTypeTCP, nvme.TrTypeAdaptive:
		q, err = core.Connect(p, ep, core.ClientConfig{ConnOptions: o.ConnOptions, TrType: ent.trType, Design: o.Design, Region: o.Region, TP: o.TP})
	case nvme.TrTypeRDMA:
		prm := ent.rdma()
		if o.RDMA != nil {
			prm = *o.RDMA
		}
		q, err = rdma.Connect(p, ep, rdma.ClientConfig{
			ConnOptions: o.ConnOptions, Params: prm, BatchSize: o.TP.BatchSize,
			RegCache: o.RegCache, Merge: o.Merge, DynDoorbell: o.DynDoorbell,
		})
	}
	if err != nil {
		return nil, err // not the binding's typed-nil client inside q
	}
	return q, nil
}
