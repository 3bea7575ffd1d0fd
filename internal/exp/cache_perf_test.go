package exp

import (
	"testing"
	"time"

	"nvmeoaf/internal/model"
	"nvmeoaf/internal/perf"
)

// cacheCfg is the cache acceptance workload: the adaptive fabric with
// batched submission striped across 4 queue pairs, so the emulated SSD —
// not the transport — is the bottleneck and the cache's hit latency is
// visible end to end. cacheBytes == 0 runs the uncached baseline.
func cacheCfg(cacheBytes int64, w perf.Workload, dur time.Duration) Config {
	tp := model.DefaultTCPTransport()
	tp.BatchSize = 16
	w.Batch = 16
	w.Duration = dur
	return Config{
		Kind: OAF, Seed: 42, TP: tp, Queues: 4,
		CacheBytes: cacheBytes,
		Workload:   w,
	}
}

// TestCachedHotSetBeatsUncachedAtQD64 is the PR's headline perf gate (run
// in CI): on a Zipfian hot-set read workload (theta 0.99, the YCSB
// standard skew) at QD 64 / 4 KiB, fronting the SSD with a 256 MiB
// target-side cache must at least double IOPS over the uncached device,
// and the cached hot path must not allocate more than the uncached one
// (hits are served without touching the device or allocating).
func TestCachedHotSetBeatsUncachedAtQD64(t *testing.T) {
	const window = 300 * time.Millisecond
	w := perf.Workload{IOSize: 4096, QueueDepth: 64, ReadPct: 100, Zipf: 0.99}
	un, unAllocs := measured(t, cacheCfg(0, w, window))
	ca, caAllocs := measured(t, cacheCfg(256<<20, w, window))

	unIOPS, caIOPS := un.Agg.Throughput.IOPS(), ca.Agg.Throughput.IOPS()
	cs := ca.CacheStats[0]
	t.Logf("uncached: %.0f IOPS, %.1f allocs/op (81.4 before the coroutine kernel); cached: %.0f IOPS, %.1f allocs/op (64.3 before), hit %.1f%%",
		unIOPS, unAllocs, caIOPS, caAllocs, 100*cs.HitRate())
	if caIOPS < 2*unIOPS {
		t.Errorf("cached IOPS %.0f < 2x uncached %.0f: hot-set caching gain regressed", caIOPS, unIOPS)
	}
	if cs.Hits == 0 {
		t.Error("cache reported zero hits on a Zipfian hot set")
	}
	// Allocation budget: every hit skips the device submission entirely and
	// the hit path itself is allocation-free (pinned in the cache package's
	// unit tests), so the cached run must not allocate more per op.
	if caAllocs > unAllocs {
		t.Errorf("cached path allocates more than uncached: %.1f vs %.1f allocs/op", caAllocs, unAllocs)
	}
	// And an absolute ceiling, 10% above the measured 22.6/op.
	const budget = 24.9
	if caAllocs > budget {
		t.Errorf("cached path exceeds allocation budget: %.1f allocs/op > %.1f", caAllocs, budget)
	}
}

// TestCacheUniformLargeIOStaysNeutral pins the admission policy's other
// half: a uniformly random large-I/O sweep (128 KiB reads over the full
// 2 GiB device, far larger than the cache) must bypass the cache and stay
// within 5% of the uncached throughput — the cache may not tax workloads
// it cannot help.
func TestCacheUniformLargeIOStaysNeutral(t *testing.T) {
	const window = 300 * time.Millisecond
	w := perf.Workload{IOSize: 128 << 10, QueueDepth: 64, ReadPct: 100}
	un, _ := measured(t, cacheCfg(0, w, window))
	ca, _ := measured(t, cacheCfg(256<<20, w, window))

	unIOPS, caIOPS := un.Agg.Throughput.IOPS(), ca.Agg.Throughput.IOPS()
	cs := ca.CacheStats[0]
	t.Logf("uncached: %.0f IOPS; cached: %.0f IOPS (%d bypass, %d misses)",
		unIOPS, caIOPS, cs.Bypasses, cs.Misses)
	if caIOPS < 0.95*unIOPS {
		t.Errorf("cache regressed uniform large I/O: %.0f < 95%% of %.0f IOPS", caIOPS, unIOPS)
	}
	if cs.Bypasses == 0 {
		t.Error("large reads were admitted: bypass counter is zero")
	}
}

func BenchmarkQD64OAFCachedZipf(b *testing.B) {
	w := perf.Workload{IOSize: 4096, QueueDepth: 64, ReadPct: 100, Zipf: 0.99}
	benchRun(b, cacheCfg(256<<20, w, 100*time.Millisecond))
}
