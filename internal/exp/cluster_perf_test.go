package exp

import (
	"testing"
	"time"

	"nvmeoaf/internal/perf"
	"nvmeoaf/internal/telemetry"
)

// clusterCfg is the replication scaling workload: 4 KiB random reads at
// QD 64 through the placement/replication router over n member targets.
func clusterCfg(targets, replicas int, dur time.Duration) Config {
	return Config{
		Kind: TCP25G, Seed: 42,
		ClusterTargets:  targets,
		ClusterReplicas: replicas,
		Workload: perf.Workload{
			IOSize: 4096, QueueDepth: 64, ReadPct: 100,
			Duration: dur,
		},
	}
}

// TestClusterReadScalingAtFourTargets is the PR's perf gate: sharding a
// namespace across four member targets (R=2, so every extent's reads
// rotate over two replicas) must deliver at least 3.2x the read IOPS of
// the single-target baseline at QD 64 / 4 KiB randread — near-linear
// scaling, because each member brings its own SSD, NIC, and fabric
// connection.
func TestClusterReadScalingAtFourTargets(t *testing.T) {
	const window = 300 * time.Millisecond
	one, err := Run(clusterCfg(1, 1, window))
	if err != nil {
		t.Fatal(err)
	}
	four, err := Run(clusterCfg(4, 2, window))
	if err != nil {
		t.Fatal(err)
	}
	oneIOPS, fourIOPS := one.Agg.Throughput.IOPS(), four.Agg.Throughput.IOPS()
	t.Logf("1 target: %.0f IOPS; 4 targets: %.0f IOPS (%.2fx)",
		oneIOPS, fourIOPS, fourIOPS/oneIOPS)
	if one.Agg.Errors > 0 || four.Agg.Errors > 0 {
		t.Fatalf("cluster runs errored: %d / %d", one.Agg.Errors, four.Agg.Errors)
	}
	if fourIOPS < 3.2*oneIOPS {
		t.Errorf("4-target IOPS %.0f < 3.2x single-target %.0f: replication scaling regressed",
			fourIOPS, oneIOPS)
	}
	if four.Cluster == nil || four.Cluster.Seats != 4 {
		t.Fatal("cluster stats missing from the result")
	}
	if four.Cluster.Reads == 0 {
		t.Error("router recorded no reads")
	}
}

// TestClusterSurvivesMidRunCrash exercises the chaos-bench
// configuration: a member crash mid-window on a replicated
// namespace must not produce a single failed I/O — reads fail over, and
// the restarted member is healed by background re-replication.
func TestClusterSurvivesMidRunCrash(t *testing.T) {
	cfg := clusterCfg(4, 2, 100*time.Millisecond)
	cfg.CrashMember = 1
	cfg.CrashAt = 20 * time.Millisecond
	cfg.CrashDown = 10 * time.Millisecond
	res, err := Run(cfg)
	if err != nil {
		t.Fatal(err)
	}
	if res.Agg.Errors > 0 {
		t.Errorf("%d I/Os failed across the crash; failover should save all reads", res.Agg.Errors)
	}
	if res.Cluster.ReplicaDowns == 0 {
		t.Error("the crash was never detected as a replica death")
	}
	if len(res.FaultLog) != 2 {
		t.Fatalf("fault log has %d events, want crash+restart", len(res.FaultLog))
	}
	if res.FaultLog[0].Kind != "target-crash" || res.FaultLog[1].Kind != "target-restart" {
		t.Errorf("fault log = %v", res.FaultLog)
	}
}

// TestClusterOverRDMAReportsTelemetry pins that cluster members are
// opened like every other connection: an rdma member's session engine and
// wire report into the run's sink (they once got none, so a
// cluster-over-rdma run had no session.* or rdma.* counters at all).
func TestClusterOverRDMAReportsTelemetry(t *testing.T) {
	cfg := clusterCfg(4, 2, 20*time.Millisecond)
	cfg.Kind = RDMA56
	res, err := Run(cfg)
	if err != nil {
		t.Fatal(err)
	}
	if res.Agg.Errors > 0 || res.Cluster.Reads == 0 {
		t.Fatalf("run: %d reads, %d errors", res.Cluster.Reads, res.Agg.Errors)
	}
	tel := res.Telemetry
	if got := tel.Counter(telemetry.CtrCompletions); got <= 0 {
		t.Errorf("client.completions = %d on a cluster-over-rdma run, want > 0", got)
	}
	if got := tel.Counter(telemetry.CtrRDMARegHits) + tel.Counter(telemetry.CtrRDMARegMisses); got <= 0 {
		t.Errorf("rdma registration hits+misses = %d, want > 0", got)
	}
}
