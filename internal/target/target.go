// Package target implements the NVMe-oF target application: named
// subsystems exposing namespaces backed by the bdev layer, plus command
// execution shared by every transport (TCP, RDMA, and the adaptive
// fabric). It mirrors SPDK's nvmf target: subsystems own namespaces,
// namespaces wrap bdevs, and the transports call Execute to run a
// command against the right device.
package target

import (
	"errors"
	"fmt"
	"time"

	"nvmeoaf/internal/bdev"
	"nvmeoaf/internal/cache"
	"nvmeoaf/internal/model"
	"nvmeoaf/internal/nvme"
	"nvmeoaf/internal/sim"
	"nvmeoaf/internal/ssd"
)

// Target is one NVMe-oF target application instance.
type Target struct {
	e    *sim.Engine
	host model.HostParams
	subs map[string]*Subsystem
	// order preserves subsystem registration order so the discovery log
	// is deterministic.
	order []string
}

// New creates an empty target with the given software-cost parameters.
func New(e *sim.Engine, host model.HostParams) *Target {
	return &Target{e: e, host: host, subs: make(map[string]*Subsystem)}
}

// Subsystem is one NVM subsystem: an NQN exposing a set of namespaces.
type Subsystem struct {
	NQN string
	nss map[uint32]*Namespace
}

// Namespace binds a namespace ID to a block device.
type Namespace struct {
	ID  uint32
	dev bdev.Device
}

// AddSubsystem registers a subsystem under nqn.
func (t *Target) AddSubsystem(nqn string) (*Subsystem, error) {
	if nqn == "" {
		return nil, fmt.Errorf("target: empty NQN")
	}
	if _, ok := t.subs[nqn]; ok {
		return nil, fmt.Errorf("target: subsystem %q already exists", nqn)
	}
	sub := &Subsystem{NQN: nqn, nss: make(map[uint32]*Namespace)}
	t.subs[nqn] = sub
	t.order = append(t.order, nqn)
	return sub, nil
}

// Subsystem resolves a registered subsystem by NQN.
func (t *Target) Subsystem(nqn string) (*Subsystem, bool) {
	sub, ok := t.subs[nqn]
	return sub, ok
}

// AddNamespace attaches dev as namespace nsid.
func (s *Subsystem) AddNamespace(nsid uint32, dev bdev.Device) (*Namespace, error) {
	if nsid == 0 {
		return nil, fmt.Errorf("target: namespace ID 0 is reserved")
	}
	if _, ok := s.nss[nsid]; ok {
		return nil, fmt.Errorf("target: namespace %d already exists in %s", nsid, s.NQN)
	}
	ns := &Namespace{ID: nsid, dev: dev}
	s.nss[nsid] = ns
	return ns, nil
}

// Namespace resolves a namespace by ID.
func (s *Subsystem) Namespace(nsid uint32) (*Namespace, bool) {
	ns, ok := s.nss[nsid]
	return ns, ok
}

// Device exposes the backing block device.
func (ns *Namespace) Device() bdev.Device { return ns.dev }

// Identify builds the identify-namespace page from the bdev geometry.
func (ns *Namespace) Identify() nvme.IdentifyNamespace {
	blocks := uint64(ns.dev.Blocks())
	return nvme.IdentifyNamespace{
		NSZE:      blocks,
		NCAP:      blocks,
		BlockSize: uint32(ns.dev.BlockSize()),
	}
}

// IdentifyController builds the identify-controller page for the
// controller fronting nqn.
func (t *Target) IdentifyController(nqn string) (nvme.IdentifyController, error) {
	sub, ok := t.subs[nqn]
	if !ok {
		return nvme.IdentifyController{}, fmt.Errorf("target: unknown subsystem %q", nqn)
	}
	return nvme.IdentifyController{
		VID:      0x1B36, // QEMU's NVMe vendor ID: this is a simulated device
		SN:       "OAFSIM0001",
		MN:       "NVMe-oAF simulated ctrl",
		NN:       uint32(len(sub.nss)),
		MDTS:     5, // 2^5 pages = 128 KiB, the fabric's chunk size
		IOQueues: 128,
	}, nil
}

// DiscoveryLog encodes the discovery log page: one entry per registered
// subsystem, advertised on the given transport type and address.
func (t *Target) DiscoveryLog(trType uint8, trAddr string) []byte {
	entries := make([]nvme.DiscoveryEntry, 0, len(t.order))
	for _, nqn := range t.order {
		entries = append(entries, nvme.DiscoveryEntry{TrType: trType, SubNQN: nqn, TrAddr: trAddr})
	}
	return nvme.EncodeDiscoveryLog(entries)
}

// ExecResult is the outcome of executing one command.
type ExecResult struct {
	// CQE is the completion queue entry (CID echoed, status set).
	CQE nvme.Completion
	// Data holds read payload when the device retains real bytes: the
	// destination passed to ExecuteAs when there was one.
	Data []byte
	// IOTime is the device service time (submit to completion).
	IOTime time.Duration
	// OtherTime is target-side software time (bdev submission path).
	OtherTime time.Duration
}

// Execute runs one I/O or flush command against the named subsystem,
// blocking the calling process until the device completes. Validation
// failures and device errors come back as typed NVMe statuses — the
// transports propagate them to the host instead of dropping the command.
func (t *Target) Execute(w *sim.Proc, nqn string, cmd nvme.Command, data []byte) ExecResult {
	return t.ExecuteAs(w, nqn, "", cmd, data, new(ssd.Request))
}

// ExecuteAs is Execute with tenant attribution: the bdev request carries
// the tenant name so tenant-aware devices (a write-back cache with
// per-tenant dirty budgets) can partition on it.
//
// data is the bdev request's Data. On a write it is the payload (nil when
// modeled). On a read it is an optional destination of exactly the
// command's length, owned by the caller: a device that retains bytes
// fills it and returns it as ExecResult.Data, so a transport can pass the
// buffer it already reserved for the transfer; nil lets the device
// allocate.
//
// req is the storage for the bdev request, owned by the caller (a
// transport's command slot) and free for reuse once ExecuteAs returns, so
// executing a command allocates nothing here.
func (t *Target) ExecuteAs(w *sim.Proc, nqn, tenant string, cmd nvme.Command, data []byte, req *ssd.Request) ExecResult {
	fail := func(st nvme.Status, other time.Duration) ExecResult {
		return ExecResult{CQE: nvme.Completion{CID: cmd.CID, Status: st}, OtherTime: other}
	}
	sub, ok := t.subs[nqn]
	if !ok {
		return fail(nvme.StatusInvalidField, 0)
	}
	nsid := cmd.NSID
	if nsid == 0 {
		nsid = 1
	}
	ns, ok := sub.nss[nsid]
	if !ok {
		return fail(nvme.StatusInvalidNamespace, 0)
	}

	req.Offset, req.Size, req.Data, req.Tenant = 0, 0, nil, tenant
	switch cmd.Opcode {
	case nvme.OpFlush:
		req.Op = ssd.OpFlush
	case nvme.OpRead, nvme.OpWrite:
		off, size, st := nvme.LBARange(&cmd, ns.dev.BlockSize(), ns.dev.Blocks())
		if st.IsError() {
			return fail(st, 0)
		}
		req.Offset = off
		req.Size = size
		req.Data = data
		if cmd.Opcode == nvme.OpWrite {
			req.Op = ssd.OpWrite
		} else {
			req.Op = ssd.OpRead
		}
	default:
		return fail(nvme.StatusInvalidOpcode, 0)
	}

	// Target-side bdev submission cost (SPDK's nvmf-to-bdev handoff).
	w.Sleep(t.host.BdevSubmitCPU)
	t0 := w.Now()
	res := ns.dev.Submit(req).Wait(w)
	ioTime := w.Now().Sub(t0)
	if res.Err != nil {
		st := nvme.StatusInternalError
		// Write-back cache data that never reached media is a media-level
		// write fault, not a generic internal error: the host must learn
		// the data is gone rather than retry.
		var loss *cache.DirtyLossError
		if errors.As(res.Err, &loss) {
			st = nvme.StatusWriteFault
		}
		return ExecResult{
			CQE:       nvme.Completion{CID: cmd.CID, Status: st},
			IOTime:    ioTime,
			OtherTime: t.host.BdevSubmitCPU,
		}
	}
	return ExecResult{
		CQE:       nvme.Completion{CID: cmd.CID, Status: nvme.StatusSuccess},
		Data:      res.Data,
		IOTime:    ioTime,
		OtherTime: t.host.BdevSubmitCPU,
	}
}
