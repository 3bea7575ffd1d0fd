package exp

import (
	"runtime"
	"testing"
	"time"

	"nvmeoaf/internal/model"
	"nvmeoaf/internal/perf"
)

// batchCfg is the acceptance workload: 4 KiB random reads at QD 64.
func batchCfg(kind Kind, batch, queues int, dur time.Duration) Config {
	tp := model.DefaultTCPTransport()
	tp.BatchSize = batch
	return Config{
		Kind: kind, Seed: 42, TP: tp, Queues: queues,
		Workload: perf.Workload{
			IOSize: 4096, QueueDepth: 64, ReadPct: 100,
			Duration: dur, Batch: batch,
		},
	}
}

// measured runs one configuration and returns the result plus the
// process-wide allocation count per completed I/O (setup amortized over
// the op count; Go's allocation counting is deterministic enough for a
// budget gate with headroom).
func measured(t testing.TB, cfg Config) (*Result, float64) {
	var m0, m1 runtime.MemStats
	runtime.GC()
	runtime.ReadMemStats(&m0)
	res, err := Run(cfg)
	runtime.ReadMemStats(&m1)
	if err != nil {
		t.Fatal(err)
	}
	ops := res.Agg.Throughput.Ops
	if ops == 0 {
		t.Fatal("no measured ops")
	}
	return res, float64(m1.Mallocs-m0.Mallocs) / float64(ops)
}

// TestBatchedBeatsUnbatchedAtQD64 is the PR's perf-regression gate (run
// in CI): at QD 64 / 4 KiB on the TCP path, batched submission must
// deliver at least 20% more IOPS than one-message-per-command, and the
// batched hot path must allocate no more than the unbatched one and stay
// within an absolute allocation budget.
func TestBatchedBeatsUnbatchedAtQD64(t *testing.T) {
	const window = 300 * time.Millisecond
	un, unAllocs := measured(t, batchCfg(TCP25G, 0, 1, window))
	ba, baAllocs := measured(t, batchCfg(TCP25G, 16, 1, window))

	unIOPS, baIOPS := un.Agg.Throughput.IOPS(), ba.Agg.Throughput.IOPS()
	t.Logf("unbatched: %.0f IOPS, %.1f allocs/op (62.6 before the coroutine kernel); batched: %.0f IOPS, %.1f allocs/op (49.2 before)",
		unIOPS, unAllocs, baIOPS, baAllocs)
	if baIOPS < 1.2*unIOPS {
		t.Errorf("batched IOPS %.0f < 1.2x unbatched %.0f: coalescing gain regressed", baIOPS, unIOPS)
	}
	// Allocation budget: the freelists (pending ops, capsule/PDU scratch,
	// recycled IO structs, the per-host future slice) must keep the
	// batched hot path at or below the unbatched path's allocation rate,
	// and under an absolute ceiling 10% above the measured 13.3/op.
	if baAllocs > unAllocs {
		t.Errorf("batched path allocates more than unbatched: %.1f vs %.1f allocs/op", baAllocs, unAllocs)
	}
	const budget = 14.6
	if baAllocs > budget {
		t.Errorf("batched path exceeds allocation budget: %.1f allocs/op > %.1f", baAllocs, budget)
	}
}

// TestStripedQueuesScaleCleanly pins that multi-queue striping composes
// with batching without losing work or erroring: same workload, striped
// across 4 member queues, completes with zero errors and at least the
// single-queue throughput.
func TestStripedQueuesScaleCleanly(t *testing.T) {
	const window = 200 * time.Millisecond
	single, _ := measured(t, batchCfg(TCP25G, 16, 1, window))
	striped, _ := measured(t, batchCfg(TCP25G, 16, 4, window))
	if striped.Agg.Errors > 0 {
		t.Fatalf("striped run errored: %d", striped.Agg.Errors)
	}
	if striped.Agg.Throughput.IOPS() < single.Agg.Throughput.IOPS() {
		t.Errorf("striping lost throughput: %.0f < %.0f IOPS",
			striped.Agg.Throughput.IOPS(), single.Agg.Throughput.IOPS())
	}
}
