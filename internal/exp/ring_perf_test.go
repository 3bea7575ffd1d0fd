package exp

import (
	"testing"
	"time"

	"nvmeoaf/internal/model"
	"nvmeoaf/internal/perf"
)

// ringCfg builds the ring acceptance workload: 4 KiB random reads on the
// TCP 25G fabric, future-based or ring-based submission. Ring mode runs
// with the session engine's batch-capsule wire path enabled — staged
// trains draining through the reactor as coalesced capsules is the whole
// point of ring submission; the future baseline is the plain per-op
// Submit API exactly as oaf.Queue issues it.
func ringCfg(kind Kind, qd int, ring bool, dur time.Duration) Config {
	tp := model.DefaultTCPTransport()
	if ring {
		tp.BatchSize = 16
	}
	return Config{
		Kind: kind, Seed: 43, TP: tp,
		Workload: perf.Workload{
			IOSize: 4096, QueueDepth: qd, ReadPct: 100,
			Duration: dur, Ring: ring,
		},
	}
}

// TestRingBeatsFuturesAtQD256 is the PR's acceptance gate (run in CI):
// at QD 256 / 4 KiB on tcp-25g, the SQ/CQ ring fast path must deliver
// more IOPS than the future-based Submit API — the ring replaces one
// future allocation, one result allocation, one callback registration,
// and one submit-CPU charge per op with recycled slots and one doorbell
// per reaped train — and must allocate strictly less per op end to end.
func TestRingBeatsFuturesAtQD256(t *testing.T) {
	const window = 200 * time.Millisecond
	fu, fuAllocs := measured(t, ringCfg(TCP25G, 256, false, window))
	ri, riAllocs := measured(t, ringCfg(TCP25G, 256, true, window))

	fuIOPS, riIOPS := fu.Agg.Throughput.IOPS(), ri.Agg.Throughput.IOPS()
	t.Logf("futures: %.0f IOPS, %.1f allocs/op (63.6 before the coroutine kernel); ring: %.0f IOPS, %.1f allocs/op (46.3 before)",
		fuIOPS, fuAllocs, riIOPS, riAllocs)
	if ri.Agg.Errors > 0 {
		t.Fatalf("ring run errored: %d", ri.Agg.Errors)
	}
	if riIOPS <= fuIOPS {
		t.Errorf("ring IOPS %.0f <= future-API IOPS %.0f at QD 256: the fast path lost its advantage", riIOPS, fuIOPS)
	}
	// The whole-process measurement includes the target side (which
	// allocates per capsule either way), so the client-side ring shows up
	// as a strict reduction, not zero; the zero-allocs-per-op gate on the
	// ring itself lives in internal/ring (TestRingHotPathZeroAlloc).
	if riAllocs >= fuAllocs {
		t.Errorf("ring path allocates no less than futures: %.1f vs %.1f allocs/op", riAllocs, fuAllocs)
	}
	// And an absolute ceiling, 10% above the measured 13.1/op.
	const budget = 14.4
	if riAllocs > budget {
		t.Errorf("ring path exceeds allocation budget: %.1f allocs/op > %.1f", riAllocs, budget)
	}
}

// TestRingMatchesFuturesResults pins that ring mode measures the same
// physics, not a different workload, on a direct connection, a striped
// group and a replicated namespace alike: same fabric, same pattern, same
// QD — every command completes with the same (success) status under both
// drivers, and mean latency and throughput land within 20% of the
// future-based driver (the remaining difference IS the submission-path
// saving).
func TestRingMatchesFuturesResults(t *testing.T) {
	const window = 200 * time.Millisecond
	for _, row := range []struct {
		name string
		mut  func(*Config)
	}{
		{"direct", func(*Config) {}},
		{"striped", func(c *Config) { c.Kind, c.Queues = OAF, 4 }},
		// rdma-ib56 at QD 32: on tcp-25g at QD 64 a command outlives the
		// replicated namespace's 500us member time-out.
		{"replicated", func(c *Config) {
			c.Kind, c.ClusterTargets, c.ClusterReplicas = RDMA56, 3, 2
			c.Workload.QueueDepth, c.Workload.ReadPct = 32, 70
		}},
	} {
		t.Run(row.name, func(t *testing.T) {
			run := func(ring bool) *Result {
				cfg := ringCfg(TCP25G, 64, ring, window)
				row.mut(&cfg)
				res, _ := measured(t, cfg)
				return res
			}
			fu, ri := run(false), run(true)
			if fu.Agg.Errors != 0 || ri.Agg.Errors != 0 {
				t.Errorf("failed commands: futures %d, ring %d; want none under either driver", fu.Agg.Errors, ri.Agg.Errors)
			}
			fuLat, riLat := fu.Agg.BD.MeanTotal(), ri.Agg.BD.MeanTotal()
			if riLat > fuLat*1.2 || riLat < fuLat*0.5 {
				t.Errorf("ring mean latency %.1fus implausible vs futures %.1fus", riLat, fuLat)
			}
			if ri.Agg.Throughput.Ops == 0 || ri.Agg.Throughput.IOPS() < fu.Agg.Throughput.IOPS()*0.8 {
				t.Errorf("ring throughput %.0f IOPS fell below futures %.0f", ri.Agg.Throughput.IOPS(), fu.Agg.Throughput.IOPS())
			}
		})
	}
}

func BenchmarkQD64TCPFutures(b *testing.B) {
	benchRun(b, ringCfg(TCP25G, 64, false, 100*time.Millisecond))
}

func BenchmarkQD64TCPRing(b *testing.B) {
	benchRun(b, ringCfg(TCP25G, 64, true, 100*time.Millisecond))
}

func BenchmarkQD256TCPFutures(b *testing.B) {
	benchRun(b, ringCfg(TCP25G, 256, false, 100*time.Millisecond))
}

func BenchmarkQD256TCPRing(b *testing.B) {
	benchRun(b, ringCfg(TCP25G, 256, true, 100*time.Millisecond))
}

func BenchmarkQD256OAFRing(b *testing.B) {
	benchRun(b, ringCfg(OAF, 256, true, 100*time.Millisecond))
}
