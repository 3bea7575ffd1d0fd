// Package telemetry is the fabric-wide observability layer: named
// counters, stats.Histogram-backed distributions, and a fixed-capacity
// ring of path-decision trace events.
//
// The adaptive fabric constantly makes invisible decisions — SHM vs. TCP
// path selection, chunk size, busy-poll budget — and the recovery
// machinery (retries, failover, shedding) changes behavior under faults.
// A Sink collects all of it in one place so benchmarks, the chaos suite,
// and the public oaf API can export a single JSON snapshot.
//
// Design constraints:
//
//   - Allocation-light on the hot path: counters are a fixed array
//     indexed by Counter constants, histograms are pre-allocated at
//     Sink construction, and trace events are fixed-size structs
//     written into a pre-allocated ring (no fmt, no interface boxing).
//   - Near-zero cost when disabled: every record method checks one
//     bool and returns. The package-level Disabled sink is permanently
//     off, and a nil *Sink behaves like Disabled.
//   - The simulation engine is cooperative (exactly one process runs
//     at a time), so plain int64 increments are race-safe under
//     -race; no atomics needed on the hot path.
package telemetry

import (
	"time"

	"nvmeoaf/internal/stats"
)

// Counter identifies one fabric-wide counter. The constants below are
// the complete metric namespace; String() yields the exported name.
type Counter int

const (
	// Client I/O path.
	CtrSubmitsSHM  Counter = iota // I/Os submitted on the shared-memory path
	CtrSubmitsTCP                 // I/Os submitted on the TCP path
	CtrCompletions                // commands completed (incl. admin)
	CtrRetries                    // command retries after timeout/transient error
	CtrTimeouts                   // command deadline expirations
	CtrFailovers                  // mid-stream SHM->TCP path failovers
	CtrReconnects                 // successful controller reconnects
	CtrLateMsgs                   // messages for dead/stale commands (client)

	// Server / target side.
	CtrSrvSHMConns   // connections negotiated onto the SHM data path
	CtrSrvTCPConns   // connections admitted on the TCP-only data path
	CtrSrvShed       // commands shed under buffer exhaustion
	CtrSrvBufWaits   // commands that waited for a data buffer
	CtrSrvKATOExpiry // keep-alive watchdog teardowns
	CtrSrvStaleMsgs  // messages for torn-down commands (server)

	// Shared-memory region.
	CtrSHMClaims      // slots claimed
	CtrSHMReleases    // slots released
	CtrSHMRevocations // region revocations
	CtrSHMFutexStalls // claimers that slept futex-style for a slot

	// TCP wire.
	CtrPDUsTx // PDUs transmitted
	CtrPDUsRx // PDUs received

	// Fabric provisioning.
	CtrProvisionOK     // SHM regions provisioned
	CtrProvisionFailed // SHM provisioning failures (degraded to TCP)

	// Target-side block cache.
	CtrCacheHit          // reads served from resident lines
	CtrCacheMiss         // reads that went to the backing device
	CtrCacheFill         // lines installed
	CtrCacheEvict        // valid clean lines replaced
	CtrCacheBypass       // reads that bypassed the cache (large/sequential)
	CtrCacheWriteBack    // writes absorbed as dirty lines
	CtrCacheWriteThrough // writes forwarded to the backing device
	CtrCacheThrottled    // write-backs degraded under the dirty bound
	CtrCacheDirtyBytes   // current unflushed bytes (up/down via Add)
	CtrCacheDirtyLost    // dirty lines lost to crash or flush failure

	// Replicated namespace layer (internal/cluster).
	CtrReplWrites        // replicated writes acknowledged at write quorum
	CtrReplReads         // replicated reads completed
	CtrReplReplicaWrites // per-replica write submissions (fan-out)
	CtrReplQuorumFails   // writes that could not reach the write quorum
	CtrReplReadFailovers // reads re-driven on another replica after an error
	CtrReplDegraded      // I/Os issued with fewer than R live replicas
	CtrReplicaDown       // replicas declared dead
	CtrReplicaUp         // replicas (re)admitted to service
	CtrRebuildRounds     // re-replication rounds completed (stale set drained)
	CtrRebuildExtents    // extents copied to a recovering replica
	CtrRebuildBytes      // bytes copied by re-replication

	// Ring fast path (internal/ring).
	CtrRingSubmits   // SQ entries submitted through rings
	CtrRingReaps     // CQ entries reaped through rings
	CtrRingSQFull    // pushes refused because the SQ was full (stalls)
	CtrRingBufStalls // buffer claims refused because the arena was empty

	// RDMA fast path (internal/rdma): memory-registration cache and
	// RDMAbox-style posting optimizations.
	CtrRDMARegHits        // posts whose buffer region was already registered
	CtrRDMARegMisses      // posts that stalled on an inline region registration
	CtrRDMARegEvictions   // registered regions evicted under cache pressure
	CtrRDMAPreregBytes    // bytes pre-registered at connect (pool + ring arena)
	CtrRDMAMergedOps      // work requests folded away by adjacent-request merging
	CtrRDMADoorbellsSaved // doorbell rings saved by train coalescing

	numCounters
)

var counterNames = [numCounters]string{
	CtrSubmitsSHM:         "client.submits.shm",
	CtrSubmitsTCP:         "client.submits.tcp",
	CtrCompletions:        "client.completions",
	CtrRetries:            "client.retries",
	CtrTimeouts:           "client.timeouts",
	CtrFailovers:          "client.failovers",
	CtrReconnects:         "client.reconnects",
	CtrLateMsgs:           "client.late_msgs",
	CtrSrvSHMConns:        "server.conns.shm",
	CtrSrvTCPConns:        "server.conns.tcp",
	CtrSrvShed:            "server.shed",
	CtrSrvBufWaits:        "server.buffer_waits",
	CtrSrvKATOExpiry:      "server.kato_expirations",
	CtrSrvStaleMsgs:       "server.stale_msgs",
	CtrSHMClaims:          "shm.claims",
	CtrSHMReleases:        "shm.releases",
	CtrSHMRevocations:     "shm.revocations",
	CtrSHMFutexStalls:     "shm.futex_stalls",
	CtrPDUsTx:             "tcp.pdus.tx",
	CtrPDUsRx:             "tcp.pdus.rx",
	CtrProvisionOK:        "fabric.provision.ok",
	CtrProvisionFailed:    "fabric.provision.failed",
	CtrCacheHit:           "cache.hit",
	CtrCacheMiss:          "cache.miss",
	CtrCacheFill:          "cache.fill",
	CtrCacheEvict:         "cache.evict",
	CtrCacheBypass:        "cache.bypass",
	CtrCacheWriteBack:     "cache.writeback",
	CtrCacheWriteThrough:  "cache.writethrough",
	CtrCacheThrottled:     "cache.wb_throttled",
	CtrCacheDirtyBytes:    "cache.dirty_bytes",
	CtrCacheDirtyLost:     "cache.dirty_lost",
	CtrReplWrites:         "cluster.writes",
	CtrReplReads:          "cluster.reads",
	CtrReplReplicaWrites:  "cluster.replica_writes",
	CtrReplQuorumFails:    "cluster.quorum_failures",
	CtrReplReadFailovers:  "cluster.read_failovers",
	CtrReplDegraded:       "cluster.degraded_ios",
	CtrReplicaDown:        "cluster.replica_down",
	CtrReplicaUp:          "cluster.replica_up",
	CtrRebuildRounds:      "cluster.rebuild_rounds",
	CtrRebuildExtents:     "cluster.rebuild_extents",
	CtrRebuildBytes:       "cluster.rebuild_bytes",
	CtrRingSubmits:        "ring.submits",
	CtrRingReaps:          "ring.reaps",
	CtrRingSQFull:         "ring.sq_full_stalls",
	CtrRingBufStalls:      "ring.buf_stalls",
	CtrRDMARegHits:        "rdma.reg_hits",
	CtrRDMARegMisses:      "rdma.reg_misses",
	CtrRDMARegEvictions:   "rdma.reg_evictions",
	CtrRDMAPreregBytes:    "rdma.prereg_bytes",
	CtrRDMAMergedOps:      "rdma.merged_ops",
	CtrRDMADoorbellsSaved: "rdma.doorbells_saved",
}

// String returns the exported metric name.
func (c Counter) String() string {
	if c < 0 || c >= numCounters {
		return "unknown"
	}
	return counterNames[c]
}

// Hist identifies one pre-allocated distribution.
type Hist int

const (
	HistReadLatency     Hist = iota // read completion latency, ns
	HistWriteLatency                // write completion latency, ns
	HistIOSize                      // submitted I/O size, bytes
	HistClaimWait                   // SHM slot claim wait, ns
	HistBufWait                     // server data-buffer wait, ns
	HistBatchSize                   // commands coalesced per doorbell/capsule train
	HistReapDepth                   // completions reaped per received message
	HistCacheFlushLat               // cache write-back flush latency, ns
	HistRebuildCopy                 // re-replication per-extent copy time, ns
	HistRingSubmitDepth             // SQ entries flushed per ring doorbell
	HistRingReapDepth               // CQ entries handed back per reap call

	numHists
)

var histNames = [numHists]string{
	HistReadLatency:     "latency.read_ns",
	HistWriteLatency:    "latency.write_ns",
	HistIOSize:          "io.size_bytes",
	HistClaimWait:       "shm.claim_wait_ns",
	HistBufWait:         "server.buffer_wait_ns",
	HistBatchSize:       "batch.submit_size",
	HistReapDepth:       "batch.reap_depth",
	HistCacheFlushLat:   "cache.flush_latency_ns",
	HistRebuildCopy:     "cluster.rebuild_copy_ns",
	HistRingSubmitDepth: "ring.submit_depth",
	HistRingReapDepth:   "ring.reap_depth",
}

// String returns the exported histogram name.
func (h Hist) String() string {
	if h < 0 || h >= numHists {
		return "unknown"
	}
	return histNames[h]
}

// EventKind classifies one trace-ring entry.
type EventKind uint8

const (
	EvPathSelected    EventKind = iota // connect negotiated a data path
	EvProvisionFailed                  // SHM provisioning failed; TCP fallback
	EvFailover                         // mid-stream SHM->TCP failover
	EvRetry                            // command retried
	EvTimeout                          // command deadline expired
	EvReconnect                        // controller reconnected
	EvShed                             // server shed a command
	EvRevoked                          // SHM region revoked
	EvKATOExpired                      // keep-alive watchdog fired
	EvReplicaDown                      // cluster declared a replica dead
	EvReplicaUp                        // cluster (re)admitted a replica
	EvRebuildStart                     // re-replication began for a replica
	EvRebuildDone                      // stale set drained; cluster whole
	EvTenantThrottle                   // a tenant's command was rejected over budget
)

var eventKindNames = [...]string{
	EvPathSelected:    "path_selected",
	EvProvisionFailed: "provision_failed",
	EvFailover:        "failover",
	EvRetry:           "retry",
	EvTimeout:         "timeout",
	EvReconnect:       "reconnect",
	EvShed:            "shed",
	EvRevoked:         "revoked",
	EvKATOExpired:     "kato_expired",
	EvReplicaDown:     "replica_down",
	EvReplicaUp:       "replica_up",
	EvRebuildStart:    "rebuild_start",
	EvRebuildDone:     "rebuild_done",
	EvTenantThrottle:  "tenant_throttle",
}

// String returns the exported event name.
func (k EventKind) String() string {
	if int(k) >= len(eventKindNames) {
		return "unknown"
	}
	return eventKindNames[k]
}

// Event is one path-decision trace entry. All fields are fixed-size or
// static strings chosen by the call site; recording never formats.
type Event struct {
	AtNs int64     // virtual time, nanoseconds
	Kind EventKind // what happened
	CID  uint16    // command ID, when command-scoped
	Path string    // "shm", "tcp", or "" when not path-scoped
	Note string    // static detail chosen by the call site (e.g. design name)
}

// DefaultTraceDepth is the trace-ring capacity used by New.
const DefaultTraceDepth = 256

// Sink collects counters, distributions, and trace events. The zero
// value is a permanently disabled sink (as is a nil pointer); use New
// for an enabled one.
type Sink struct {
	enabled  bool
	counters [numCounters]int64
	hists    [numHists]*stats.Histogram

	// tenants holds the lazily created per-tenant views (see tenant.go);
	// nil until the first tenant is named.
	tenants map[string]*TenantView

	ring  []Event
	next  int    // ring write cursor
	total uint64 // events ever traced (>= len(ring) once wrapped)
}

// Disabled is a shared, permanently disabled sink. Recording into it is
// a single branch; Snapshot on it returns an empty snapshot.
var Disabled = &Sink{}

// New returns an enabled sink with DefaultTraceDepth trace slots.
func New() *Sink { return NewWithTraceDepth(DefaultTraceDepth) }

// NewWithTraceDepth returns an enabled sink whose trace ring holds the
// last depth events (depth <= 0 disables tracing but keeps metrics).
func NewWithTraceDepth(depth int) *Sink {
	s := &Sink{enabled: true}
	for i := range s.hists {
		s.hists[i] = stats.NewHistogram()
	}
	if depth > 0 {
		s.ring = make([]Event, depth)
	}
	return s
}

// Enabled reports whether the sink records anything.
func (s *Sink) Enabled() bool { return s != nil && s.enabled }

// Inc adds 1 to counter c.
func (s *Sink) Inc(c Counter) {
	if s == nil || !s.enabled {
		return
	}
	s.counters[c]++
}

// Add adds n to counter c.
func (s *Sink) Add(c Counter, n int64) {
	if s == nil || !s.enabled {
		return
	}
	s.counters[c] += n
}

// Counter returns the current value of c.
func (s *Sink) Counter(c Counter) int64 {
	if s == nil || !s.enabled {
		return 0
	}
	return s.counters[c]
}

// Observe records one sample into distribution h.
func (s *Sink) Observe(h Hist, v int64) {
	if s == nil || !s.enabled {
		return
	}
	s.hists[h].Record(v)
}

// ObserveDuration records a duration sample (in nanoseconds) into h.
func (s *Sink) ObserveDuration(h Hist, d time.Duration) { s.Observe(h, int64(d)) }

// Histogram exposes the underlying histogram for h, or nil when the
// sink is disabled. Callers must treat it as read-only.
func (s *Sink) Histogram(h Hist) *stats.Histogram {
	if s == nil || !s.enabled {
		return nil
	}
	return s.hists[h]
}

// Trace appends one event to the ring, overwriting the oldest entry
// once full. atNs is the virtual time in nanoseconds.
func (s *Sink) Trace(atNs int64, kind EventKind, cid uint16, path, note string) {
	if s == nil || !s.enabled || len(s.ring) == 0 {
		return
	}
	s.ring[s.next] = Event{AtNs: atNs, Kind: kind, CID: cid, Path: path, Note: note}
	s.next++
	if s.next == len(s.ring) {
		s.next = 0
	}
	s.total++
}

// TraceCount returns the number of events ever traced (the ring keeps
// only the most recent len(ring) of them).
func (s *Sink) TraceCount() uint64 {
	if s == nil || !s.enabled {
		return 0
	}
	return s.total
}

// Events returns the retained trace events, oldest first. The returned
// slice is freshly allocated (snapshot-path only; never hot).
func (s *Sink) Events() []Event {
	if s == nil || !s.enabled || s.total == 0 {
		return nil
	}
	n := int(s.total)
	if n > len(s.ring) {
		n = len(s.ring)
	}
	out := make([]Event, 0, n)
	start := s.next - n
	if start < 0 {
		start += len(s.ring)
	}
	for i := 0; i < n; i++ {
		out = append(out, s.ring[(start+i)%len(s.ring)])
	}
	return out
}

// Merge folds the counters and histograms of other into s. Trace rings
// are not merged (traces stay per-sink; Snapshot aggregation interleaves
// them at a higher level if needed). Merging a disabled or nil sink is
// a no-op.
func (s *Sink) Merge(other *Sink) {
	if s == nil || !s.enabled || other == nil || !other.enabled {
		return
	}
	for i := range s.counters {
		s.counters[i] += other.counters[i]
	}
	for i := range s.hists {
		s.hists[i].Merge(other.hists[i])
	}
	s.mergeTenants(other)
}
