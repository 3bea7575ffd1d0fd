package exp

import (
	"testing"
	"time"

	"nvmeoaf/internal/perf"
	"nvmeoaf/internal/qos"
)

// qosGateWorkload is the polite tenant's base workload for the
// isolation gate: one latency-sensitive stream of 128 KiB reads at
// QD1, long enough past warmup for the shaper's refill cadence to
// settle. Batch 16 only matters for the greedy streams (QD1 trains
// are single commands); it makes the unshaped greedy submission
// pattern bursty, which is exactly the noisy-neighbor shape QoS is
// supposed to absorb.
func qosGateWorkload() perf.Workload {
	return perf.Workload{
		ReadPct: 100, IOSize: 128 << 10, QueueDepth: 1, Batch: 16,
		Warmup: 5 * time.Millisecond, Duration: 100 * time.Millisecond,
	}
}

// qosGateRun drives 1 polite stream against 8 greedy streams of 8 KiB
// reads at QD64 (~8x the fabric's sustainable load) on one shared
// 25G NIC. rateMBps caps the greedy tenant; 0 leaves it unshaped.
func qosGateRun(t *testing.T, rateMBps int) *Result {
	t.Helper()
	var burst int64
	if rateMBps > 0 {
		// A small explicit burst keeps the cap binding within the run;
		// the default (rate/100) would let ~18 MiB through unpaced.
		burst = 256 << 10
	}
	res, err := Run(Config{
		Kind: TCP25G, Streams: 9, Workload: qosGateWorkload(), Seed: 42,
		Tenants: []TenantSpec{
			{Name: "polite", SLO: qos.LatencySensitive, Streams: 1},
			{Name: "greedy", SLO: qos.Throughput, RateMBps: rateMBps,
				BurstBytes: burst, Streams: 8, QueueDepth: 64,
				Pattern: &perf.Phase{ReadPct: 100, IOSize: 8 << 10}},
		},
	})
	if err != nil {
		t.Fatal(err)
	}
	return res
}

// TestGreedyTenantCannotDegradePoliteP99 is the PR's isolation gate:
// a greedy tenant offering ~8x the fabric's sustainable load may not
// degrade a polite tenant's p99 by more than 10% versus the polite
// tenant running alone, while whole-fabric throughput stays at >= 90%
// of the no-QoS aggregate. The same scenario with QoS off must show
// >= 2x degradation — otherwise the gate would pass vacuously on a
// fabric with no contention to mitigate. Finally, the token ledger
// must conserve: borrowing moves refill capacity between tenants but
// never mints or destroys tokens.
func TestGreedyTenantCannotDegradePoliteP99(t *testing.T) {
	solo, err := Run(Config{
		Kind: TCP25G, Streams: 1, Workload: qosGateWorkload(), Seed: 42,
		Tenants: []TenantSpec{{Name: "polite", SLO: qos.LatencySensitive}},
	})
	if err != nil {
		t.Fatal(err)
	}
	soloP99 := solo.Agg.Latency.P99()
	if soloP99 <= 0 {
		t.Fatal("solo run produced no latency samples")
	}

	off := qosGateRun(t, 0)   // greedy unshaped: the noisy neighbor
	on := qosGateRun(t, 1800) // greedy capped just under fair share
	offP99 := off.PerStream[0].Latency.P99()
	onP99 := on.PerStream[0].Latency.P99()
	offRatio := float64(offP99) / float64(soloP99)
	onRatio := float64(onP99) / float64(soloP99)
	aggFrac := on.Agg.Throughput.GBps() / off.Agg.Throughput.GBps()
	t.Logf("polite p99 solo=%v off=%v (%.3fx) on=%v (%.3fx); agg on/off = %.3f/%.3f GB/s (%.1f%%)",
		time.Duration(soloP99), time.Duration(offP99), offRatio,
		time.Duration(onP99), onRatio,
		on.Agg.Throughput.GBps(), off.Agg.Throughput.GBps(), 100*aggFrac)

	// Without QoS the greedy tenant must actually hurt: if it doesn't,
	// this scenario proves nothing about isolation.
	if offRatio < 2.0 {
		t.Errorf("QoS-off degradation = %.3fx, want >= 2x: scenario has no contention to mitigate", offRatio)
	}
	// With QoS on, the polite tenant's p99 must stay within 10% of
	// running alone...
	if onRatio > 1.10 {
		t.Errorf("QoS-on polite p99 = %.3fx solo, want <= 1.10x", onRatio)
	}
	// ...without sacrificing whole-fabric utilization.
	if aggFrac < 0.90 {
		t.Errorf("QoS-on aggregate = %.1f%% of no-QoS aggregate, want >= 90%%", 100*aggFrac)
	}

	// The shaper must have actually gated the greedy tenant (the gate
	// is exercising QoS, not a coincidentally-polite workload)...
	var greedy *qos.TenantStats
	for i := range on.QoS {
		if on.QoS[i].Name == "greedy" {
			greedy = &on.QoS[i]
		}
	}
	if greedy == nil {
		t.Fatalf("no greedy tenant in QoS stats: %+v", on.QoS)
	}
	if greedy.Taken == 0 {
		t.Error("greedy tenant never took a token from the shaper")
	}
	// ...and the ledger must balance exactly: every token spent was
	// minted by some tenant's refill, none created or destroyed.
	if err := on.QoSRegistry.Check(); err != nil {
		t.Errorf("token conservation violated: %v", err)
	}
}

// TestTenantForAssignsStreams covers both stream->tenant assignment
// modes: explicit block sizes (with the last spec absorbing the
// remainder) and all-zero round-robin.
func TestTenantForAssignsStreams(t *testing.T) {
	block := Config{Streams: 5, Tenants: []TenantSpec{
		{Name: "a", Streams: 2}, {Name: "b", Streams: 1}, {Name: "c"},
	}}
	wantBlock := []string{"a", "a", "b", "c", "c"}
	for i, want := range wantBlock {
		if got := block.TenantFor(i).Name; got != want {
			t.Errorf("block tenantFor(%d) = %q, want %q", i, got, want)
		}
	}
	rr := Config{Streams: 5, Tenants: []TenantSpec{{Name: "a"}, {Name: "b"}}}
	wantRR := []string{"a", "b", "a", "b", "a"}
	for i, want := range wantRR {
		if got := rr.TenantFor(i).Name; got != want {
			t.Errorf("round-robin tenantFor(%d) = %q, want %q", i, got, want)
		}
	}
}

// TestTargetQoSRequiresTenants: arming target-side enforcement with no
// tenants to enforce is a config mistake, not a silent no-op.
func TestTargetQoSRequiresTenants(t *testing.T) {
	_, err := Run(Config{Kind: TCP25G, Streams: 1, TargetQoS: true,
		Workload: perf.Workload{Duration: time.Millisecond}})
	if err == nil {
		t.Fatal("TargetQoS without Tenants did not error")
	}
}
