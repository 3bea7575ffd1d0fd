package core

import (
	"fmt"

	"nvmeoaf/internal/model"
	"nvmeoaf/internal/shm"
	"nvmeoaf/internal/sim"
	"nvmeoaf/internal/telemetry"
)

// Fabric is the Locality Awareness component: the stand-in for the
// hypervisor / resource manager (Kubernetes, OpenStack, SLURM) that
// hotplugs an IVSHMEM/ICSHMEM region between a client VM and a target VM
// on the same physical host and announces it to both sides (§4.2).
//
// Experiments place clients and targets on named hosts; Provision only
// yields a region when both sides are co-located, which is exactly the
// locality check the Connection Manager performs during the handshake.
type Fabric struct {
	e       *sim.Engine
	params  model.SHMParams
	nextKey uint64
	regions map[uint64]*shm.Region
	tel     *telemetry.Sink

	failErr error // when set, Provision fails with this error (fault injection)
}

// NewFabric creates the registry.
func NewFabric(e *sim.Engine, params model.SHMParams) *Fabric {
	return &Fabric{e: e, params: params, nextKey: 1, regions: make(map[uint64]*shm.Region), tel: telemetry.Disabled}
}

// AttachTelemetry routes provisioning metrics into s, and propagates s
// to every region provisioned afterwards. A nil sink disables.
func (f *Fabric) AttachTelemetry(s *telemetry.Sink) {
	if s == nil {
		s = telemetry.Disabled
	}
	f.tel = s
}

// FailProvisions forces every subsequent Provision call to fail with
// err (nil restores normal behavior). It models the resource manager
// refusing or botching the IVSHMEM hotplug — the failure mode the
// connect handshake must degrade from, not crash on.
func (f *Fabric) FailProvisions(err error) { f.failErr = err }

// Provision allocates a dedicated region for one client-target pair when
// they share a host. It returns (nil, nil) for remote pairs — the
// adaptive fabric then stays on the TCP path — and (nil, error) when the
// hotplug itself fails, which callers must treat as a degraded TCP
// fallback rather than a fatal condition. Each co-located pair gets its
// own region (the paper's security posture: tenants never share a
// mapping).
func (f *Fabric) Provision(clientHost, targetHost string, slotSize, slotCount int, mode shm.Mode) (*shm.Region, error) {
	if clientHost == "" || clientHost != targetHost {
		return nil, nil
	}
	if f.failErr != nil {
		f.tel.Inc(telemetry.CtrProvisionFailed)
		f.tel.Trace(int64(f.e.Now()), telemetry.EvProvisionFailed, 0, "tcp", "injected")
		return nil, fmt.Errorf("core: provision %s: %w", clientHost, f.failErr)
	}
	key := f.nextKey
	f.nextKey++
	r, err := shm.NewRegion(f.e, key, slotSize, slotCount, f.params, mode, shm.ClaimRoundRobin)
	if err != nil {
		f.tel.Inc(telemetry.CtrProvisionFailed)
		f.tel.Trace(int64(f.e.Now()), telemetry.EvProvisionFailed, 0, "tcp", "geometry")
		return nil, fmt.Errorf("core: provision %s: %w", clientHost, err)
	}
	r.AttachTelemetry(f.tel)
	f.regions[key] = r
	f.tel.Inc(telemetry.CtrProvisionOK)
	return r, nil
}

// Lookup resolves a region key announced during the handshake, as the
// peer side does when mapping the same physical pages.
func (f *Fabric) Lookup(key uint64) (*shm.Region, bool) {
	r, ok := f.regions[key]
	return r, ok
}

// RegionFor picks the slot geometry a design needs and provisions a
// region: chunk-sized slots for the chunked designs, whole-I/O slots
// otherwise. maxIO is the largest I/O the workload will issue; depth the
// queue depth (slots per direction, per the paper's slot-per-queue-entry
// layout). A (nil, nil) result means the pair stays on TCP by design or
// placement; a non-nil error means SHM was wanted but could not be
// provisioned, and the caller should degrade to TCP.
func (f *Fabric) RegionFor(design Design, clientHost, targetHost string, maxIO, chunk, depth int) (*shm.Region, error) {
	if !design.UsesSHM() {
		return nil, nil
	}
	slotSize := maxIO
	slotCount := depth
	if design.Chunked() {
		slotSize = chunk
		// Chunked transfers claim several slots per I/O; keep the same
		// total footprint as one whole-I/O slot per queue entry.
		n := (maxIO + chunk - 1) / chunk
		slotCount = depth * n
	}
	return f.Provision(clientHost, targetHost, slotSize, slotCount, design.LockMode())
}
