// Package model holds the calibrated hardware and software timing
// parameters for the NVMe-oAF simulation.
//
// Every constant is documented with the paper observation it was calibrated
// against (figure/table numbers refer to Kashyap & Lu, HPDC '22). Absolute
// values are chosen so that the *shape* of each reproduced figure matches
// the paper: who wins, by roughly what factor, and where crossovers fall.
// The physical testbed being simulated is described in Table 1 of the
// paper (Chameleon/CloudLab nodes, QEMU VMs with SR-IOV, emulated
// NVMe-SSDs, IVSHMEM).
package model

import "time"

// SSDParams models one NVMe SSD: a set of independent flash channels, each
// serving one request at a time with a fixed setup cost plus a
// size-proportional transfer cost. Writes land in an on-device cache and
// have a much smaller setup cost, matching the paper's observation that
// writes are slower end-to-end only because of host-side preparation, while
// the device itself completes them faster (§3.2).
type SSDParams struct {
	// Channels is the device's internal parallelism. Concurrency beyond
	// this saturates the device (Fig 14: bandwidth scales with queue depth
	// until the SSD limit).
	Channels int
	// ReadSetup is the fixed per-command read cost on a channel
	// (flash read + FTL). Dominates small reads: ~80us for 4 KB
	// (Fig 3: "I/O time" is the major component for 4 KB RDMA reads).
	ReadSetup time.Duration
	// WriteSetup is the fixed per-command write cost (cache hit).
	WriteSetup time.Duration
	// ChannelReadBytesPerSec is per-channel read streaming bandwidth.
	// 8 channels x 320 MB/s = 2.56 GB/s device read bandwidth, so four
	// devices offer ~10 GB/s — comfortably above every network in Fig 2,
	// making the fabric the bottleneck for all TCP transports.
	ChannelReadBytesPerSec float64
	// ChannelWriteBytesPerSec is per-channel write streaming bandwidth
	// (2.08 GB/s per device).
	ChannelWriteBytesPerSec float64
	// StallProb is the per-command probability of an internal stall
	// (garbage collection / erase suspend), the device's contribution to
	// tail latency (Fig 13).
	StallProb float64
	// StallDuration is the mean stall length.
	StallDuration time.Duration
	// JitterFrac is the +/- uniform service-time jitter fraction.
	JitterFrac float64
}

// DefaultSSD returns the emulated NVMe-SSD used by all experiments.
func DefaultSSD() SSDParams {
	return SSDParams{
		Channels:                8,
		ReadSetup:               68 * time.Microsecond,
		WriteSetup:              12 * time.Microsecond,
		ChannelReadBytesPerSec:  320e6,
		ChannelWriteBytesPerSec: 260e6,
		StallProb:               0.0005,
		StallDuration:           800 * time.Microsecond,
		JitterFrac:              0.10,
	}
}

// LinkParams models a full-duplex network path between two VMs, including
// the virtualized NIC and the host TCP/IP stack costs on both ends.
type LinkParams struct {
	Name string
	// WireBytesPerSec is the effective data-rate ceiling of the shared
	// wire in each direction (after framing/protocol efficiency).
	WireBytesPerSec float64
	// Propagation is the one-way latency excluding serialization:
	// NIC + vswitch/SR-IOV + switch.
	Propagation time.Duration
	// PerMsgCPU is host CPU time to send or receive one PDU/segment batch
	// (syscalls, protocol processing). Paid on each side per message.
	PerMsgCPU time.Duration
	// PerByteCPUNanos is host CPU time per payload byte in nanoseconds
	// (copies + checksum). This is what makes NVMe/TCP stack-bound rather
	// than wire-bound at 25/100 Gbps (Fig 2: 100G is only ~1.26-1.48x
	// faster than 25G).
	PerByteCPUNanos float64
	// WakeupPenalty is the added latency when a message arrives while the
	// receiving reactor is idle in interrupt mode (context switch + IRQ).
	WakeupPenalty time.Duration
}

// TCP10G models the Broadcom 10 GbE path (Chameleon). Wire-bound:
// 10 Gbit/s x 94% framing efficiency = 1.175 GB/s.
func TCP10G() LinkParams {
	return LinkParams{
		Name:            "tcp-10g",
		WireBytesPerSec: 1.175e9,
		Propagation:     20 * time.Microsecond,
		PerMsgCPU:       6 * time.Microsecond,
		PerByteCPUNanos: 1.25, // ~800 MB/s per-stream stack ceiling
		WakeupPenalty:   12 * time.Microsecond,
	}
}

// TCP25G models the 25 GbE path. The paper simulates 25G with IPoIB, whose
// datagram-mode overhead caps efficiency well below line rate: 3.125 GB/s x
// 72% = 2.25 GB/s (Fig 2: 25G barely beats 10G at 4 KB and only modestly at
// 128 KB).
func TCP25G() LinkParams {
	return LinkParams{
		Name:            "tcp-25g",
		WireBytesPerSec: 2.25e9,
		Propagation:     18 * time.Microsecond,
		PerMsgCPU:       6 * time.Microsecond,
		PerByteCPUNanos: 1.25,
		WakeupPenalty:   12 * time.Microsecond,
	}
}

// TCP100G models the Mellanox ConnectX-5 Ex 100 GbE path (CloudLab). The
// wire (11.25 GB/s) is never the bottleneck; the per-stream stack cost is
// (Fig 2/11: TCP-100G read ~1.26x TCP-25G, still ~1.46x below RDMA).
func TCP100G() LinkParams {
	return LinkParams{
		Name:            "tcp-100g",
		WireBytesPerSec: 11.25e9,
		Propagation:     15 * time.Microsecond,
		PerMsgCPU:       6 * time.Microsecond,
		PerByteCPUNanos: 1.25,
		WakeupPenalty:   12 * time.Microsecond,
	}
}

// Loopback models the intra-node TCP path used by the adaptive fabric's
// control plane (client VM to target VM on the same host through the
// virtual switch). High bandwidth, but each message still pays stack CPU
// and vswitch hops — the paper's observation that control-plane overhead
// dominates oAF at 4 KB (Fig 12, §5.5).
func Loopback() LinkParams {
	return LinkParams{
		Name:            "tcp-loopback",
		WireBytesPerSec: 14e9,
		Propagation:     8 * time.Microsecond,
		PerMsgCPU:       5 * time.Microsecond,
		PerByteCPUNanos: 1.10,
		WakeupPenalty:   12 * time.Microsecond,
	}
}

// RDMAParams models an RDMA transport (InfiniBand FDR or RoCE).
type RDMAParams struct {
	Name string
	// WireBytesPerSec is the effective RDMA data bandwidth.
	// IB FDR 56G: 54.3 Gbit/s x ~64% effective = 4.3 GB/s (calibrated to
	// Fig 2: RDMA read ~1.46x TCP-100G).
	WireBytesPerSec float64
	// Propagation is the one-way fabric latency (kernel-bypass, SR-IOV).
	Propagation time.Duration
	// PerOpCPU is the per-work-request host cost (doorbell + CQE).
	PerOpCPU time.Duration
	// MemRegCost is the cost of registering a buffer region with the HCA
	// (page pinning + translation-table update for a multi-megabyte
	// region). Paid on registration-cache misses; drives RDMA's
	// short-run tail latency (Fig 13 and §5.4).
	MemRegCost time.Duration
	// MemRegWarmOps is a legacy-model knob: the decay constant (in
	// completed operations) of the registration miss rate. The
	// mechanistic MR cache derives its cold-region count from it
	// (regions = round(0.007 x MemRegWarmOps)) so a handful of misses
	// land early in the run with the same decay constant the stochastic
	// model had. Short runs keep the tail high; runs 3-4x longer dilute
	// the fixed event count below the tail percentiles, exactly as the
	// paper observes in §5.4.
	MemRegWarmOps float64
	// MemRegFloorProb is a legacy-model knob: the steady-state miss
	// probability after warmup. The mechanistic cache maps it to
	// region-churn (invalidation) probability per post.
	MemRegFloorProb float64
	// RegCacheBytes caps the fast-path MR cache (0 = 256 MiB). Only
	// consulted when the registration cache is enabled on the client.
	RegCacheBytes int64
}

// RDMA56G models NVMe/RDMA over 56 Gb IB FDR with SR-IOV.
func RDMA56G() RDMAParams {
	return RDMAParams{
		Name:            "rdma-ib56",
		WireBytesPerSec: 4.3e9,
		Propagation:     5 * time.Microsecond,
		PerOpCPU:        3 * time.Microsecond,
		MemRegCost:      2200 * time.Microsecond,
		MemRegWarmOps:   400,
		MemRegFloorProb: 0.000005,
	}
}

// RoCE100G models NVMe/RoCE on two directly connected physical CloudLab
// nodes (no virtualization layer): the paper's upper bound. Only one real
// SSD existed on that testbed, so multi-SSD RoCE rows are absent from the
// paper and from our harness too.
func RoCE100G() RDMAParams {
	return RDMAParams{
		Name:            "roce-100g",
		WireBytesPerSec: 10.6e9,
		Propagation:     3 * time.Microsecond,
		PerOpCPU:        2 * time.Microsecond,
		MemRegCost:      240 * time.Microsecond,
		MemRegWarmOps:   30000,
		MemRegFloorProb: 0.000005,
	}
}

// SHMParams models the IVSHMEM/ICSHMEM shared-memory channel and the CPU
// costs of moving payloads through it.
type SHMParams struct {
	// CopyBytesPerSec is single-core memcpy bandwidth between a private
	// buffer and the shared region (or the DPDK pool): cross-VM copies
	// miss caches and cross NUMA, landing well below peak DRAM bandwidth.
	// This is the cost the zero-copy design removes from the client
	// (Fig 8).
	CopyBytesPerSec float64
	// SlotOverhead is the fixed per-I/O cost of claiming a slot, writing
	// the I/O vector, and memory fencing.
	SlotOverhead time.Duration
	// LockHold is the extra critical-section cost per shared-memory access
	// in the naive locked design (SHM-baseline in Fig 8): lock acquisition
	// plus cacheline bouncing. The lock additionally serializes all copies.
	LockHold time.Duration
	// FutexProb is the probability that a locked-mode acquisition takes
	// the slow futex path (cross-VM mutex handoff: sleep + kernel
	// wakeup). These rare events dominate the locked design's tail
	// latency — the -38%% p99.99 the lock-free scheme recovers (§4.4.4).
	FutexProb float64
	// FutexPenalty is the slow-path cost.
	FutexPenalty time.Duration
	// RegionSize is the default shared region size per client.
	RegionSize int
}

// DefaultSHM returns the shared-memory channel parameters.
func DefaultSHM() SHMParams {
	return SHMParams{
		CopyBytesPerSec: 2.2e9,
		SlotOverhead:    600 * time.Nanosecond,
		LockHold:        2 * time.Microsecond,
		FutexProb:       0.03,
		FutexPenalty:    180 * time.Microsecond,
		RegionSize:      256 << 20,
	}
}

// HostParams models client/target software costs independent of fabric.
type HostParams struct {
	// SubmitCPU is the cost to build and submit one NVMe command capsule.
	SubmitCPU time.Duration
	// CompleteCPU is the cost to process one completion.
	CompleteCPU time.Duration
	// FillPerByteNanos is the client-side cost per byte (in nanoseconds)
	// to produce write payload into a private buffer ("other" time in
	// Fig 3: TCP writes must fill and then copy out the buffer; oAF's
	// zero-copy design fills the shared buffer in place and skips the
	// copy-out).
	FillPerByteNanos float64
	// BdevSubmitCPU is the target-side cost to hand a request to the
	// block-device layer.
	BdevSubmitCPU time.Duration
}

// DefaultHost returns the software-path cost parameters.
func DefaultHost() HostParams {
	return HostParams{
		SubmitCPU:        1500 * time.Nanosecond,
		CompleteCPU:      1200 * time.Nanosecond,
		FillPerByteNanos: 0.30, // ~3.3 GB/s payload generation
		BdevSubmitCPU:    900 * time.Nanosecond,
	}
}

// TCPTransportParams collects NVMe/TCP protocol behaviour knobs.
type TCPTransportParams struct {
	// InCapsuleThreshold: writes at or below this size travel with the
	// command capsule (no R2T round trip), per the NVMe/TCP flow-control
	// split the paper describes in §4.4.2.
	InCapsuleThreshold int
	// ChunkSize is the application-level chunk size; I/O larger than this
	// is split into ceil(size/chunk) data PDUs, and target data buffers
	// are allocated at this granularity (§4.5, Fig 9). SPDK's stock value
	// is 128 KB; the paper finds 512 KB optimal for 25 GbE.
	ChunkSize int
	// DataBuffers is the number of chunk-sized data buffers in the target
	// pool (R2T credits for conservative flow control).
	DataBuffers int
	// BusyPoll is the receive busy-poll budget (0 = interrupt mode).
	BusyPoll time.Duration
	// AutoChunk lets the TCP-channel kinds (NVMe/TCP and the adaptive
	// fabric) pick ChunkSize from the link hardware at connect time
	// (§4.5).
	AutoChunk bool
	// AutoBusyPoll lets the TCP-channel kinds steer the busy-poll budget
	// from the live read/write mix (§4.5, Fig 10's policy).
	AutoBusyPoll bool
	// BatchSize is the submission/completion coalescing depth: the client
	// packs up to this many queued commands into one capsule train (one
	// network message, one doorbell, one SHM notify for slot writes) and
	// the target merges up to this many ready completions into one
	// response message. 0 or 1 preserves the classic one-message-per-
	// command behaviour.
	BatchSize int
}

// DefaultTCPTransport returns stock SPDK-like NVMe/TCP settings.
func DefaultTCPTransport() TCPTransportParams {
	return TCPTransportParams{
		InCapsuleThreshold: 8 << 10,
		ChunkSize:          128 << 10,
		DataBuffers:        128,
		BusyPoll:           0,
	}
}

// OrDefault returns tp, or DefaultTCPTransport() when tp was left unset
// (every configured set has a chunk size).
func (tp TCPTransportParams) OrDefault() TCPTransportParams {
	if tp.ChunkSize <= 0 {
		return DefaultTCPTransport()
	}
	return tp
}

// NFSParams models the NFS baseline used in the h5bench comparison
// (§5.7.1): an async-mounted NFSv4 export over TCP.
type NFSParams struct {
	// WSize/RSize are the mount's transfer sizes.
	WSize, RSize int
	// CacheBytes is the client page-cache budget for write-back and
	// read-ahead. The async mount buffers writes at memory speed and
	// flushes in the background — why NFS beats plain oAF for the
	// 8-dataset h5bench workload (Fig 17).
	CacheBytes int
	// PerRPCCPU is the per-RPC client+server processing cost.
	PerRPCCPU time.Duration
	// FlushDepth is the number of WRITE RPCs kept in flight during the
	// close-time flush; the COMMIT that follows forces the server's disk
	// writes, which bound NFS write bandwidth (close-to-open consistency
	// makes h5bench's measured window include this flush).
	FlushDepth int
	// CommitDepth is the server's disk-write concurrency while serving a
	// COMMIT.
	CommitDepth int
	// ReadDepth is the number of READ RPCs kept in flight by readahead.
	ReadDepth int
	// ReadAheadBytes is the client's sequential readahead window.
	ReadAheadBytes int
	// CacheCopyBytesPerSec is the client page-cache memcpy bandwidth: the
	// rate at which the async mount absorbs writes before close.
	CacheCopyBytesPerSec float64
}

// DefaultNFS returns the NFS baseline parameters.
func DefaultNFS() NFSParams {
	return NFSParams{
		WSize:                1 << 20,
		RSize:                1 << 20,
		CacheBytes:           256 << 20,
		PerRPCCPU:            18 * time.Microsecond,
		FlushDepth:           2,
		CommitDepth:          3,
		ReadDepth:            6,
		ReadAheadBytes:       4 << 20,
		CacheCopyBytesPerSec: 8e9,
	}
}
