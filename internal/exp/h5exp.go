package exp

import (
	"fmt"

	"nvmeoaf/internal/blockfs"
	"nvmeoaf/internal/core"
	"nvmeoaf/internal/dial"
	"nvmeoaf/internal/h5bench"
	"nvmeoaf/internal/hdf5"
	"nvmeoaf/internal/model"
	"nvmeoaf/internal/nfs"
	"nvmeoaf/internal/session"
	"nvmeoaf/internal/sim"
	"nvmeoaf/internal/vol"
	"nvmeoaf/internal/world"
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
	Seed    int64
	// VOL tunes the connector (zero value = defaults).
	VOL vol.Config
}

// h5Storage builds the storage stack for one kernel: a dedicated SSD on
// host behind the chosen backend. It returns the mounted hdf5.Storage
// plus a remount function that yields a fresh mount with cold caches
// (the read kernel runs against a fresh mount, as h5bench does).
func h5Storage(w *world.World, p *sim.Proc, client, host *world.Machine,
	cfg H5Config, idx int) (hdf5.Storage, func(p *sim.Proc) hdf5.Storage, error) {
	const capacity = 4 << 30
	e := w.Engine
	svc, err := w.Service(host, fmt.Sprintf("nqn.2022-06.io.oaf:h5-%s-%d", client.Name, idx), world.Spec{
		SSDName: fmt.Sprintf("h5-nvme-%s-%d", client.Name, idx), Capacity: capacity, Retain: true,
	})
	if err != nil {
		return nil, nil, err
	}
	volCfg := cfg.VOL

	switch cfg.Backend {
	case H5NFS:
		// NFS server runs on the target node; the client mounts it over
		// the 25 GbE network (hairpin when co-located). A remount builds a
		// fresh client (and server instance over the same export) so
		// caches start cold.
		mount := func(p *sim.Proc) hdf5.Storage {
			link := w.PortLink(client, host)
			nfs.NewServer(e, link.B, svc.SSD, model.DefaultNFS())
			return nfs.NewClient(e, link.A, model.DefaultNFS())
		}
		return mount(p), mount, nil

	case H5TCP, H5OAF, H5OAFCoalesce:
		o := dial.Options{
			Kind:        TCP25G,
			ConnOptions: session.ConnOptions{QueueDepth: 64},
			TP:          model.DefaultTCPTransport(),
		}
		if cfg.Backend != H5TCP {
			o.Kind, o.Design = OAF, core.DesignSHMZeroCopy
			volCfg.Coalesce = cfg.Backend == H5OAFCoalesce
		}
		pr := w.Serve(client, svc, o, 1<<20)
		c, err := dial.Connect(p, pr.Link.A, pr.Opts)
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
	w := world.New(cfg.Seed, nil)
	defer w.Close()
	e := w.Engine
	host := w.Host("host0")
	var out H5Result
	var runErr error
	e.Go("h5bench", func(p *sim.Proc) {
		st, remount, err := h5Storage(w, p, host, host, cfg, 0)
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

// scaleWorld builds the §5.7.2 topology: four kernels on nodeA, kernel
// i's SSD co-located when it uses the shared-memory channel (i <
// shmKernels) and otherwise on its own node (Case1) or on nodeA reached
// over TCP (Case2). storage builds kernel i's stack inside its process.
func scaleWorld(scase ScaleCase, shmKernels int, seed int64) (w *world.World, storage func(p *sim.Proc, i int) (hdf5.Storage, func(p *sim.Proc) hdf5.Storage, error)) {
	w = world.New(seed, nil)
	client := w.Host("nodeA")
	remotes := []*world.Machine{w.Host("nodeB"), w.Host("nodeC"), w.Host("nodeD"), w.Host("nodeE")}
	return w, func(p *sim.Proc, i int) (hdf5.Storage, func(p *sim.Proc) hdf5.Storage, error) {
		cfg, host := H5Config{Backend: H5OAF}, client
		switch {
		case i < shmKernels:
		case scase == Case1:
			host = remotes[i]
		default: // Case2: the remote path stays on the same node over TCP
			cfg.Backend = H5TCP
		}
		return h5Storage(w, p, client, host, cfg, i)
	}
}

// RunH5Scale runs four h5bench kernels with the given fraction (0..4) of
// them using the shared-memory channel, and returns aggregate write and
// read bandwidth (Figs 18 and 19).
func RunH5Scale(scase ScaleCase, shmKernels int, seed int64) (writeGBps, readGBps float64, err error) {
	if shmKernels < 0 || shmKernels > 4 {
		return 0, 0, fmt.Errorf("exp: shmKernels %d out of range", shmKernels)
	}
	w, storage := scaleWorld(scase, shmKernels, seed)
	defer w.Close()
	e := w.Engine
	kernel := h5bench.Config1()
	writes := make([]h5bench.Result, 4)
	var runErr error
	for i := 0; i < 4; i++ {
		i := i
		e.Go(fmt.Sprintf("h5scale-%d", i), func(p *sim.Proc) {
			st, _, err := storage(p, i)
			if err != nil {
				runErr = err
				return
			}
			r, err := h5bench.WriteKernel(p, st, kernel)
			if err != nil {
				runErr = err
				return
			}
			writes[i] = r
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
	w, storage := scaleWorld(scase, shmKernels, seed+1)
	defer w.Close()
	e := w.Engine
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
			st, remount, err := storage(p, i)
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
