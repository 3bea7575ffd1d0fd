package exp

import (
	"fmt"

	"nvmeoaf/internal/bdev"
	"nvmeoaf/internal/blockfs"
	"nvmeoaf/internal/core"
	"nvmeoaf/internal/dial"
	"nvmeoaf/internal/h5bench"
	"nvmeoaf/internal/hdf5"
	"nvmeoaf/internal/model"
	"nvmeoaf/internal/netsim"
	"nvmeoaf/internal/nfs"
	"nvmeoaf/internal/session"
	"nvmeoaf/internal/sim"
	"nvmeoaf/internal/target"
	"nvmeoaf/internal/transport"
	"nvmeoaf/internal/vol"
)

// H5Backend selects the storage path beneath the h5bench kernels.
type H5Backend string

// The h5bench storage backends of §5.7.
const (
	// H5OAF is the HDF5/NVMe-oAF co-design (zero-copy shared memory).
	H5OAF H5Backend = "oaf"
	// H5OAFCoalesce adds the VOL's application-agnostic I/O coalescing.
	H5OAFCoalesce H5Backend = "oaf-coalesce"
	// H5TCP runs the VOL over NVMe/TCP-25G (the remote path of the
	// scale-out cases).
	H5TCP H5Backend = "tcp-25g"
	// H5NFS is the async-mounted NFS baseline.
	H5NFS H5Backend = "nfs"
)

// H5Config describes one h5bench experiment.
type H5Config struct {
	Backend H5Backend
	Kernel  h5bench.Config
	// Design overrides the shared-memory design (default zero-copy).
	Design core.Design
	Seed   int64
	// VOL tunes the connector (zero value = defaults).
	VOL vol.Config
}

// node is one physical host in a topology.
type node struct {
	name string
	nic  *netsim.NIC // external network port
	loop *netsim.NIC // intra-node vswitch path
}

func newNode(e *sim.Engine, name string) *node {
	return &node{
		name: name,
		nic:  netsim.NewNIC(e, model.TCP25G().WireBytesPerSec),
		loop: netsim.NewNIC(e, model.Loopback().WireBytesPerSec),
	}
}

// h5Storage builds the storage stack for one kernel: a dedicated SSD
// behind the chosen backend. It returns the mounted hdf5.Storage plus a
// remount function that yields a fresh mount with cold caches (the read
// kernel runs against a fresh mount, as h5bench does).
func h5Storage(e *sim.Engine, p *sim.Proc, fabric *core.Fabric, clientNode, targetNode *node,
	cfg H5Config, idx int) (hdf5.Storage, func(p *sim.Proc) hdf5.Storage, error) {
	const capacity = 4 << 30
	nqn := fmt.Sprintf("nqn.2022-06.io.oaf:h5-%s-%d", clientNode.name, idx)
	tgt := target.New(e, model.DefaultHost())
	sub, err := tgt.AddSubsystem(nqn)
	if err != nil {
		return nil, nil, err
	}
	ssdParams := model.DefaultSSD()
	bd := bdev.NewSimSSD(e, fmt.Sprintf("h5-nvme-%s-%d", clientNode.name, idx), capacity, ssdParams, true, transport.BlockSize)
	if _, err := sub.AddNamespace(1, bd); err != nil {
		return nil, nil, err
	}

	design := cfg.Design
	if design == core.DesignTCP {
		design = core.DesignSHMZeroCopy
	}
	volCfg := cfg.VOL

	switch cfg.Backend {
	case H5NFS:
		// NFS server runs on the target node; the client mounts it over
		// the 25 GbE network (hairpin when co-located). A remount builds a
		// fresh client (and server instance over the same export) so
		// caches start cold.
		mount := func(p *sim.Proc) hdf5.Storage {
			link := netsim.NewLink(e, model.TCP25G(), clientNode.nic, targetNode.nic)
			nfs.NewServer(e, link.B, bd, model.DefaultNFS())
			return nfs.NewClient(e, link.A, model.DefaultNFS())
		}
		return mount(p), mount, nil

	case H5TCP, H5OAF, H5OAFCoalesce:
		o := dial.Options{
			Kind:        TCP25G,
			ConnOptions: session.ConnOptions{NQN: nqn, QueueDepth: 64},
			TP:          model.DefaultTCPTransport(),
		}
		intra := false
		if cfg.Backend != H5TCP {
			o.Kind, o.Design, o.Fabric = OAF, design, fabric
			intra = clientNode == targetNode
			volCfg.Coalesce = cfg.Backend == H5OAFCoalesce
		}
		// Only a co-located oAF pair gets the loopback path and a region;
		// remote pairs and the TCP backend ride the 25 GbE network.
		var link *netsim.Link
		if intra {
			link = netsim.NewLink(e, model.Loopback(), clientNode.loop, targetNode.loop)
		} else {
			link = netsim.NewLink(e, model.TCP25G(), clientNode.nic, targetNode.nic)
		}
		dial.Serve(e, tgt, link.B, o)
		if intra {
			// A failed provision degrades to the TCP data path.
			o.Region, _ = fabric.RegionFor(design, clientNode.name, targetNode.name, 1<<20, o.TP.ChunkSize, 64)
		}
		c, err := dial.Connect(p, link.A, o)
		if err != nil {
			return nil, nil, err
		}
		mount := func(p *sim.Proc) hdf5.Storage {
			return vol.New(blockfs.New(e, c, capacity), volCfg)
		}
		return mount(p), mount, nil
	}
	return nil, nil, fmt.Errorf("exp: unknown h5 backend %q", cfg.Backend)
}

// H5Result is one write+read kernel pair.
type H5Result struct {
	Write, Read h5bench.Result
}

// RunH5 runs the write kernel followed by the read kernel on one
// client/target pair (Figs 16 and 17).
func RunH5(cfg H5Config) (H5Result, error) {
	e := sim.NewEngine(cfg.Seed)
	defer e.Close()
	fabric := core.NewFabric(e, model.DefaultSHM())
	host := newNode(e, "host0")
	var out H5Result
	var runErr error
	e.Go("h5bench", func(p *sim.Proc) {
		st, remount, err := h5Storage(e, p, fabric, host, host, cfg, 0)
		if err != nil {
			runErr = err
			return
		}
		w, err := h5bench.WriteKernel(p, st, cfg.Kernel)
		if err != nil {
			runErr = err
			return
		}
		// The read kernel runs against a fresh mount (cold caches).
		r, err := h5bench.ReadKernel(p, remount(p), cfg.Kernel)
		if err != nil {
			runErr = err
			return
		}
		out = H5Result{Write: w, Read: r}
	})
	if err := e.Run(); err != nil {
		return out, err
	}
	return out, runErr
}

// ScaleCase selects the paper's scale-out topology (§5.7.2).
type ScaleCase int

const (
	// Case1 places four clients on one node and their SSDs on four
	// separate nodes; SHM-fraction clients get a co-located target
	// instead.
	Case1 ScaleCase = 1
	// Case2 co-locates each client with its SSD on one node; non-SHM
	// clients reach their (same-node) target over TCP, as in §3.1.
	Case2 ScaleCase = 2
)

// RunH5Scale runs four h5bench kernels with the given fraction (0..4) of
// them using the shared-memory channel, and returns aggregate write and
// read bandwidth (Figs 18 and 19).
func RunH5Scale(scase ScaleCase, shmKernels int, seed int64) (writeGBps, readGBps float64, err error) {
	if shmKernels < 0 || shmKernels > 4 {
		return 0, 0, fmt.Errorf("exp: shmKernels %d out of range", shmKernels)
	}
	e := sim.NewEngine(seed)
	defer e.Close()
	fabric := core.NewFabric(e, model.DefaultSHM())
	clientNode := newNode(e, "nodeA")
	remotes := []*node{newNode(e, "nodeB"), newNode(e, "nodeC"), newNode(e, "nodeD"), newNode(e, "nodeE")}

	kernel := h5bench.Config1()
	writes := make([]h5bench.Result, 4)
	var runErr error
	for i := 0; i < 4; i++ {
		i := i
		e.Go(fmt.Sprintf("h5scale-%d", i), func(p *sim.Proc) {
			useSHM := i < shmKernels
			cfg := H5Config{Backend: H5OAF, Kernel: kernel, Seed: seed}
			var tgtNode *node
			switch {
			case useSHM:
				tgtNode = clientNode
			case scase == Case1:
				tgtNode = remotes[i]
			default: // Case2: remote path stays on the same node over TCP
				cfg.Backend = H5TCP
				tgtNode = clientNode
			}
			st, _, err := h5Storage(e, p, fabric, clientNode, tgtNode, cfg, i)
			if err != nil {
				runErr = err
				return
			}
			w, err := h5bench.WriteKernel(p, st, kernel)
			if err != nil {
				runErr = err
				return
			}
			writes[i] = w
		})
	}
	if err := e.Run(); err != nil {
		return 0, 0, err
	}
	if runErr != nil {
		return 0, 0, runErr
	}
	// Read phase: fresh engine run would lose the written files; instead
	// re-run the kernels for reads in a second pass within a new engine,
	// writing first (un-timed) and reading concurrently.
	readAgg, err := runH5ScaleReads(scase, shmKernels, seed)
	if err != nil {
		return 0, 0, err
	}
	return h5bench.AggregateBandwidth(writes), readAgg, nil
}

// runH5ScaleReads repeats the topology, writes the files quietly, then
// measures four concurrent read kernels.
func runH5ScaleReads(scase ScaleCase, shmKernels int, seed int64) (float64, error) {
	e := sim.NewEngine(seed + 1)
	defer e.Close()
	fabric := core.NewFabric(e, model.DefaultSHM())
	clientNode := newNode(e, "nodeA")
	remotes := []*node{newNode(e, "nodeB"), newNode(e, "nodeC"), newNode(e, "nodeD"), newNode(e, "nodeE")}
	kernel := h5bench.Config1()
	reads := make([]h5bench.Result, 4)
	var runErr error
	barrier := sim.NewWaitGroup(e)
	barrier.Add(4)
	ready := sim.NewSignal(e)
	e.Go("barrier", func(p *sim.Proc) {
		barrier.Wait(p)
		ready.Fire()
	})
	for i := 0; i < 4; i++ {
		i := i
		e.Go(fmt.Sprintf("h5scale-read-%d", i), func(p *sim.Proc) {
			useSHM := i < shmKernels
			cfg := H5Config{Backend: H5OAF, Kernel: kernel, Seed: seed}
			var tgtNode *node
			switch {
			case useSHM:
				tgtNode = clientNode
			case scase == Case1:
				tgtNode = remotes[i]
			default:
				cfg.Backend = H5TCP
				tgtNode = clientNode
			}
			st, remount, err := h5Storage(e, p, fabric, clientNode, tgtNode, cfg, i)
			if err != nil {
				runErr = err
				barrier.Done()
				return
			}
			if _, err := h5bench.WriteKernel(p, st, kernel); err != nil {
				runErr = err
				barrier.Done()
				return
			}
			barrier.Done()
			ready.Wait(p)
			r, err := h5bench.ReadKernel(p, remount(p), kernel)
			if err != nil {
				runErr = err
				return
			}
			reads[i] = r
		})
	}
	if err := e.Run(); err != nil {
		return 0, err
	}
	if runErr != nil {
		return 0, runErr
	}
	return h5bench.AggregateBandwidth(reads), nil
}
