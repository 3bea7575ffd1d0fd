package exp

import (
	"testing"
	"time"

	"nvmeoaf/internal/model"
	"nvmeoaf/internal/perf"
)

// rdmaCfg is the RDMA acceptance workload: 4 KiB random reads at QD 64
// on the IB-56G fabric, with the fast path toggled as one unit.
func rdmaCfg(fast bool, qd int, dur time.Duration) Config {
	tp := model.DefaultTCPTransport()
	tp.BatchSize = 8
	// Deterministic device: the gate isolates the registration tail, so
	// SSD jitter/stall noise is removed (as the figure calibrations do).
	ssd := model.DefaultSSD()
	ssd.JitterFrac = 0
	ssd.StallProb = 0
	return Config{
		Kind: RDMA56, Seed: 42, TP: tp, SSD: ssd,
		Workload: perf.Workload{
			IOSize: 4096, QueueDepth: qd, ReadPct: 100,
			Duration: dur, Batch: 8,
		},
		RDMARegCache:    fast,
		RDMAMerge:       fast,
		RDMADynDoorbell: fast,
	}
}

// TestRDMAExpTelemetryParity is the regression test for the rdma exp
// construction bug: the server was built without BatchSize/Telemetry
// (and the client without BatchSize/Telemetry), so rdma runs reported
// no server-side counters and never reap-coalesced. Both sides must now
// report through the run's sink like the tcp path does.
func TestRDMAExpTelemetryParity(t *testing.T) {
	res, err := Run(rdmaCfg(false, 64, 150*time.Millisecond))
	if err != nil {
		t.Fatal(err)
	}
	snap := res.Telemetry.Snapshot()
	if snap.Counters["server.conns.tcp"] == 0 {
		t.Error("rdma exp run reports no server connections: ServerConfig dropped Telemetry again")
	}
	if snap.Counters["client.completions"] == 0 {
		t.Error("rdma exp run reports no client completions: ClientConfig dropped Telemetry again")
	}
	bsz, ok := snap.Histograms["batch.submit_size"]
	if !ok || bsz.Max < 2 {
		t.Errorf("rdma exp run never coalesced trains (batch.submit_size %+v): BatchSize dropped again", bsz)
	}
}

// TestRDMAFastPathCollapsesTailAtQD64 is the PR's CI gate, the paper's
// Fig 13 claim made mechanical: with the MR cache + pre-registered pool
// (plus merging and dynamic doorbells), the QD64 p99.9/p99.99 tail
// collapses toward p99 — the fast path's p9999/p99 ratio must be at
// most half the legacy model's — while mean throughput stays within 5%.
func TestRDMAFastPathCollapsesTailAtQD64(t *testing.T) {
	const window = 300 * time.Millisecond
	legacy, _ := measured(t, rdmaCfg(false, 64, window))
	fast, _ := measured(t, rdmaCfg(true, 64, window))

	lgIOPS, fsIOPS := legacy.Agg.Throughput.IOPS(), fast.Agg.Throughput.IOPS()
	lgRatio := float64(legacy.Agg.Latency.P9999()) / float64(legacy.Agg.Latency.P99())
	fsRatio := float64(fast.Agg.Latency.P9999()) / float64(fast.Agg.Latency.P99())
	t.Logf("legacy: %.0f IOPS, p99=%dus p999=%dus p9999=%dus (p9999/p99 %.2f)",
		lgIOPS, legacy.Agg.Latency.P99()/1e3, legacy.Agg.Latency.P999()/1e3,
		legacy.Agg.Latency.P9999()/1e3, lgRatio)
	t.Logf("fast:   %.0f IOPS, p99=%dus p999=%dus p9999=%dus (p9999/p99 %.2f)",
		fsIOPS, fast.Agg.Latency.P99()/1e3, fast.Agg.Latency.P999()/1e3,
		fast.Agg.Latency.P9999()/1e3, fsRatio)

	if fast.Agg.Errors > 0 || legacy.Agg.Errors > 0 {
		t.Fatalf("errors: legacy %d fast %d", legacy.Agg.Errors, fast.Agg.Errors)
	}
	if fsRatio > 0.5*lgRatio {
		t.Errorf("tail did not collapse: fast p9999/p99 %.2f > 0.5 x legacy %.2f", fsRatio, lgRatio)
	}
	if fsIOPS < 0.95*lgIOPS {
		t.Errorf("fast path lost throughput: %.0f < 0.95 x %.0f IOPS", fsIOPS, lgIOPS)
	}
}
