// Package core implements NVMe/TCP and NVMe-over-Adaptive-Fabric
// (NVMe-oAF), the paper's primary contribution: a transport whose control
// path always travels over TCP while the data path adaptively uses an
// optimized shared-memory channel when client and target are co-located,
// falling back to the optimized TCP path otherwise (§4). NVMe/TCP is the
// same binding with no shared memory (ClientConfig/ServerConfig.TrType).
//
// The package contains the three architectural components of Figure 4 —
// the Connection Manager (handshake + adaptive-fabric negotiation), the
// Buffer Manager (shared-memory slots on the client, DPDK-style pools on
// the target), and Locality Awareness (the region registry standing in
// for the hypervisor/resource-manager hotplug of IVSHMEM/ICSHMEM) — plus
// the four successive shared-memory designs of the Fig 8 ablation and the
// TCP-channel optimizations (adaptive chunk size, busy poll).
//
// ClientConfig and ServerConfig embed session.ConnOptions/ServeOptions
// (documented there) and add only this binding's own knobs; builders
// reach Connect and NewServer through internal/dial.
package core

import (
	"fmt"

	"nvmeoaf/internal/nvme"
	"nvmeoaf/internal/shm"
)

// label names a transport type's processes, retry RNG stream and data
// pool: "tcp" for NVMe/TCP, "oaf" for the adaptive fabric.
func label(trType uint8) string {
	if trType == nvme.TrTypeTCP {
		return "tcp"
	}
	return "oaf"
}

// Design selects the data-path design, in the order of the paper's Fig 8
// ablation.
type Design int

const (
	// DesignTCP uses the (optimized) NVMe/TCP path even intra-node; it is
	// also what every design falls back to when no shared memory exists.
	DesignTCP Design = iota
	// DesignSHMBaseline is the naive shared-memory channel: a region
	// lock guards every access, transfers move at chunk granularity with
	// a notification per chunk, and writes keep the conservative R2T
	// flow control.
	DesignSHMBaseline
	// DesignSHMLockFree replaces the region lock with the lock-free
	// double-buffer slot scheme (§4.4.1); flow control unchanged.
	DesignSHMLockFree
	// DesignSHMFlowCtl adds shared-memory flow control (§4.4.2): slots
	// span the whole I/O, one notification replaces the per-chunk train,
	// and writes skip the R2T round trip entirely (in-capsule-style for
	// any size).
	DesignSHMFlowCtl
	// DesignSHMZeroCopy additionally allocates the application buffers
	// inside the shared region (§4.4.3): the client-side copy disappears
	// on both writes (fill in place) and reads (consume in place). This
	// is the "SHM-0-copy" configuration used for all headline results.
	DesignSHMZeroCopy
)

func (d Design) String() string {
	switch d {
	case DesignTCP:
		return "tcp"
	case DesignSHMBaseline:
		return "shm-baseline"
	case DesignSHMLockFree:
		return "shm-lock-free"
	case DesignSHMFlowCtl:
		return "shm-flow-ctl"
	case DesignSHMZeroCopy:
		return "shm-0-copy"
	default:
		return "design(?)"
	}
}

// ParseDesign parses a design name as String prints it; "" selects
// DesignSHMZeroCopy, the headline configuration.
func ParseDesign(s string) (Design, error) {
	switch s {
	case "", "shm-0-copy":
		return DesignSHMZeroCopy, nil
	case "shm-flow-ctl":
		return DesignSHMFlowCtl, nil
	case "shm-lock-free":
		return DesignSHMLockFree, nil
	case "shm-baseline":
		return DesignSHMBaseline, nil
	case "tcp":
		return DesignTCP, nil
	}
	return 0, fmt.Errorf("core: unknown design %q", s)
}

// MarshalText and UnmarshalText let documents name a design as String
// prints it.
func (d Design) MarshalText() ([]byte, error) { return []byte(d.String()), nil }

func (d *Design) UnmarshalText(b []byte) (err error) {
	*d, err = ParseDesign(string(b))
	return err
}

// UsesSHM reports whether the design moves payloads over shared memory.
func (d Design) UsesSHM() bool { return d != DesignTCP }

// Chunked reports whether shared-memory transfers move at chunk
// granularity with per-chunk notifications (the pre-flow-control
// designs).
func (d Design) Chunked() bool { return d == DesignSHMBaseline || d == DesignSHMLockFree }

// LockMode returns the region concurrency mode for this design.
func (d Design) LockMode() shm.Mode {
	if d == DesignSHMBaseline {
		return shm.ModeLocked
	}
	return shm.ModeLockFree
}

// ZeroCopy reports whether client buffers live in the shared region.
func (d Design) ZeroCopy() bool { return d == DesignSHMZeroCopy }
