// Package world builds simulated deployments: the engine, the physical
// machines and their NICs, the storage services on them, and the link
// each client/target pair rides. Serve holds the adaptive fabric's
// locality rule (the paper's Connection Manager, §4.1–4.2) once: a
// co-located pair gets a shared-memory region on the machine's
// intra-node path, any other pair the optimized TCP path over the
// network. Experiments, the public API and the examples describe their
// topology through it and keep only their workloads and result
// collection.
package world

import (
	"nvmeoaf/internal/bdev"
	"nvmeoaf/internal/cache"
	"nvmeoaf/internal/core"
	"nvmeoaf/internal/dial"
	"nvmeoaf/internal/mempool"
	"nvmeoaf/internal/model"
	"nvmeoaf/internal/netsim"
	"nvmeoaf/internal/sim"
	"nvmeoaf/internal/target"
	"nvmeoaf/internal/telemetry"
	"nvmeoaf/internal/transport"
)

// World is one simulated deployment: its engine, telemetry sink and
// shared-memory region registry, plus what Service and Serve built on
// them — data pools, block caches and links, in creation order — for
// result collection.
type World struct {
	Engine *sim.Engine
	// Tel is the sink caches and the region registry report to (nil for
	// a world that keeps no telemetry).
	Tel    *telemetry.Sink
	Fabric *core.Fabric

	Pools  []*mempool.Pool
	Caches []*cache.Cache
	Links  []*netsim.Link
}

// New creates an empty world whose randomness derives from seed.
func New(seed int64, tel *telemetry.Sink) *World {
	e := sim.NewEngine(seed)
	f := core.NewFabric(e, model.DefaultSHM())
	if tel != nil {
		f.AttachTelemetry(tel)
	}
	return &World{Engine: e, Tel: tel, Fabric: f}
}

// Close releases the engine's parked processes and everything they
// reference.
func (w *World) Close() { w.Engine.Close() }

// Machine is one physical host: a network port, and — when its VMs can
// reach each other without the network — an intra-node path.
type Machine struct {
	Name  string
	port  *netsim.NIC
	link  model.LinkParams // what a pair riding the port runs over
	intra *netsim.NIC      // nil: no intra-node path
}

// Host is a cloud host: a 25 GbE port plus a loopback vswitch between
// its VMs.
func (w *World) Host(name string) *Machine {
	return &Machine{
		Name:  name,
		port:  netsim.NewNIC(w.Engine, model.TCP25G().WireBytesPerSec),
		link:  model.TCP25G(),
		intra: netsim.NewNIC(w.Engine, model.Loopback().WireBytesPerSec),
	}
}

// Hairpin is the paper's single-host set-up (§3.1, §5.1): one SR-IOV
// port carries every pair, intra-node ones included, so all traffic
// contends for it.
func (w *World) Hairpin(name string, port model.LinkParams) *Machine {
	nic := netsim.NewNIC(w.Engine, port.WireBytesPerSec)
	return &Machine{Name: name, port: nic, link: port, intra: nic}
}

// Remote is a machine reached only over its own port: it has no
// intra-node path, so even a pair placed on it rides the port.
func (w *World) Remote(name string, port model.LinkParams) *Machine {
	return &Machine{Name: name, port: netsim.NewNIC(w.Engine, port.WireBytesPerSec), link: port}
}

// PortLink connects client to host over their ports at host's port link
// model (a pair that does not speak NVMe-oF, such as an NFS mount).
func (w *World) PortLink(client, host *Machine) *netsim.Link {
	return w.newLink(host.link, client.port, host.port)
}

func (w *World) newLink(lp model.LinkParams, a, b *netsim.NIC) *netsim.Link {
	l := netsim.NewLink(w.Engine, lp, a, b)
	w.Links = append(w.Links, l)
	return l
}

// Spec describes one storage service's device.
type Spec struct {
	// SSDName names the device; it is also its random stream, so it is
	// part of the run's physics.
	SSDName  string
	Capacity int64
	// SSD is the device model (zero value = model.DefaultSSD()).
	SSD    model.SSDParams
	Retain bool
	// Cache, when Cache.Bytes is positive, fronts the SSD with a block
	// cache; its Retain and Telemetry are the service's and the world's.
	Cache cache.Config
}

// Service is one storage service: a target serving one subsystem whose
// namespace 1 is an SSD, behind a block cache when one was asked for.
// It is the unit a fault crashes (faults.Crashable): every connection
// Serve started for it goes down and comes back together.
type Service struct {
	Machine *Machine
	NQN     string
	SSD     *bdev.SSDBdev
	Cache   *cache.Cache // nil when uncached
	tgt     *target.Target
	servers []*dial.Server // one per Serve, in order
}

// Crash crashes every server Serve started for the service, dropping
// their connections and in-flight state; a cached service loses its
// dirty lines. The servers are read when the crash fires, so one served
// after the crash was scheduled goes down too.
func (s *Service) Crash() {
	for _, srv := range s.servers {
		srv.Crash()
	}
}

// Restart brings every server of the service back up.
func (s *Service) Restart() {
	for _, srv := range s.servers {
		srv.Restart()
	}
}

// Service builds a storage service on m. The SSD starts its channel
// processes here, so when a service is built is part of the run's
// physics.
func (w *World) Service(m *Machine, nqn string, s Spec) (*Service, error) {
	tgt := target.New(w.Engine, model.DefaultHost())
	sub, err := tgt.AddSubsystem(nqn)
	if err != nil {
		return nil, err
	}
	if s.SSD.Channels == 0 {
		s.SSD = model.DefaultSSD()
	}
	svc := &Service{Machine: m, NQN: nqn, tgt: tgt,
		SSD: bdev.NewSimSSD(w.Engine, s.SSDName, s.Capacity, s.SSD, s.Retain, transport.BlockSize)}
	var dev bdev.Device = svc.SSD
	if s.Cache.Bytes > 0 {
		cfg := s.Cache
		cfg.Retain, cfg.Telemetry = s.Retain, w.Tel
		svc.Cache = cache.New(w.Engine, svc.SSD, cfg)
		w.Caches = append(w.Caches, svc.Cache)
		dev = svc.Cache
	}
	if _, err := sub.AddNamespace(1, dev); err != nil {
		return nil, err
	}
	return svc, nil
}

// Pair is one served client/target pair.
type Pair struct {
	Link   *netsim.Link
	Server *dial.Server
	// Opts is what the client connects with over Link.A: the caller's
	// options plus the service's NQN and, for the adaptive kinds, the
	// region registry and the pair's region (nil = TCP data path).
	Opts dial.Options
}

// path is the locality rule: the link model and the NICs a pair of kind
// rides from client to a service on host, and whether it gets a
// shared-memory region. A co-located adaptive pair on a machine with an
// intra-node path rides that path on the kind's own link; any other
// adaptive pair rides the host's port; every other kind rides its own
// link between the two ports.
func path(client, host *Machine, kind dial.Kind) (lp model.LinkParams, a, b *netsim.NIC, region bool) {
	lp, err := kind.Link()
	if err != nil {
		panic(err) // Kind.Link is where a builder learns a kind is unknown
	}
	switch {
	case !kind.Adaptive():
	case client == host && host.intra != nil:
		return lp, host.intra, host.intra, true
	default:
		lp = host.link
	}
	return lp, client.port, host.port, false
}

// Serve links client to svc by the locality rule and starts the target
// side of the connection o describes, one more server for svc's crash
// set. A cached service's crash loses its unflushed write-back lines,
// so the next flush barrier reports the typed loss. A co-located
// adaptive pair's region is provisioned after its server starts (region
// keys are handed out in that order), sized for maxIO at o's chunk size
// and queue depth; a failed provision leaves it nil and the pair
// degrades to the TCP data path (the trace records the decision).
func (w *World) Serve(client *Machine, svc *Service, o dial.Options, maxIO int) Pair {
	lp, a, b, region := path(client, svc.Machine, o.Kind)
	o.NQN = svc.NQN
	if o.Kind.Adaptive() {
		o.Fabric = w.Fabric
	}
	if ca := svc.Cache; ca != nil {
		o.OnCrash = func() { ca.LoseDirty() }
	}
	link := w.newLink(lp, a, b)
	srv := dial.Serve(w.Engine, svc.tgt, link.B, o)
	svc.servers = append(svc.servers, srv)
	if srv.Pool != nil {
		w.Pools = append(w.Pools, srv.Pool)
	}
	if region {
		o.Region, _ = w.Fabric.RegionFor(o.Design, client.Name, svc.Machine.Name, maxIO, o.TP.ChunkSize, o.QueueDepth)
	}
	return Pair{Link: link, Server: srv, Opts: o}
}
