package main

import (
	"nvmeoaf/internal/exp"
	"nvmeoaf/internal/telemetry"
)

// modelCounters reads the per-layer model counters from a run's public
// outputs (exp.Result and its telemetry sink). A counter whose subsystem is
// not in the workload is left out of the map — absent, not zero. Ratios per
// I/O divide by every I/O the run completed, warm-up and drain included,
// because the counters span the whole run too.
func modelCounters(cfg exp.Config, res *exp.Result) map[string]float64 {
	out := map[string]float64{}
	tel := res.Telemetry
	ctr := func(c telemetry.Counter) float64 { return float64(tel.Counter(c)) }

	cluster := res.Cluster != nil
	rdma := cfg.Kind == exp.RDMA56 || cfg.Kind == exp.RoCE100
	oaf := cfg.Kind == exp.OAF || cfg.Kind == exp.OAFRDMACtl
	// Known hole, recorded not fixed: exp/cluster.go hands rdma cluster
	// members no telemetry sink, so session.* and rdma.* counters do not
	// exist on a cluster-over-rdma run.
	sessionTel := !(cluster && rdma)

	ios := ctr(telemetry.CtrCompletions)
	if cluster {
		ios = float64(res.Cluster.Reads + res.Cluster.Writes)
	}
	perIO := func(v float64) float64 { return v / ios }
	perKIO := func(v float64) float64 { return 1000 * v / ios }
	p99us := func(h telemetry.Hist) float64 { return float64(tel.Histogram(h).P99()) / 1e3 }

	// The paper's Fig 3/12 split; the three sum to the mean latency.
	bd := res.Agg.BD
	out["ssd.io_us"] = bd.MeanIO()
	out["netsim.comm_us"] = bd.MeanComm()
	out["session.other_us"] = bd.MeanOther()

	var util float64
	for _, d := range res.Devices {
		util += d.SSD().Utilization()
	}
	out["ssd.util"] = util / float64(len(res.Devices))
	out["netsim.wire_bytes_per_io"] = perIO(float64(res.WireBytes))

	if sessionTel {
		out["session.batch_submit_mean"] = tel.Histogram(telemetry.HistBatchSize).Mean()
		out["session.reap_depth_mean"] = tel.Histogram(telemetry.HistReapDepth).Mean()
		out["session.buffer_wait_p99_us"] = p99us(telemetry.HistBufWait)
		out["session.shed_per_kio"] = perKIO(ctr(telemetry.CtrSrvShed))
		out["session.retries_per_kio"] = perKIO(ctr(telemetry.CtrRetries))
		out["session.timeouts_per_kio"] = perKIO(ctr(telemetry.CtrTimeouts))
		if !rdma {
			// Every PDU is counted once, by whichever side received it.
			out["tcp.pdus_per_io"] = perIO(ctr(telemetry.CtrPDUsRx))
		} else if n := ctr(telemetry.CtrRDMARegHits) + ctr(telemetry.CtrRDMARegMisses); n > 0 {
			out["rdma.reg_miss_ratio"] = ctr(telemetry.CtrRDMARegMisses) / n
		}
	}
	if oaf && !cluster {
		out["shm.bytes_per_io"] = perIO(float64(res.SHMBytes))
		out["shm.claim_wait_p99_us"] = p99us(telemetry.HistClaimWait)
		out["shm.futex_stalls_per_kio"] = perKIO(ctr(telemetry.CtrSHMFutexStalls))
	}
	if len(res.Pools) > 0 {
		var peak, exhausted float64
		for _, p := range res.Pools {
			peak = max(peak, float64(p.PeakInUse)/float64(p.Cap))
			exhausted += float64(p.Exhausted)
		}
		out["mempool.peak_in_use_frac"] = peak
		out["mempool.exhausted"] = exhausted
	}
	if cfg.Workload.Ring {
		out["ring.submit_depth_mean"] = tel.Histogram(telemetry.HistRingSubmitDepth).Mean()
		out["ring.reap_depth_mean"] = tel.Histogram(telemetry.HistRingReapDepth).Mean()
		out["ring.sq_full_per_kio"] = perKIO(ctr(telemetry.CtrRingSQFull))
	}
	if len(res.CacheStats) > 0 {
		var hits, misses, evict, bypass, throttled float64
		for _, cs := range res.CacheStats {
			hits += float64(cs.Hits)
			misses += float64(cs.Misses)
			evict += float64(cs.Evictions)
			bypass += float64(cs.Bypasses)
			throttled += float64(cs.Throttled)
		}
		out["cache.hit_ratio"] = hits / (hits + misses)
		out["cache.evict_per_kio"] = perKIO(evict)
		out["cache.bypass_per_kio"] = perKIO(bypass)
		out["cache.wb_throttled_per_kio"] = perKIO(throttled)
	}
	if cluster {
		out["cluster.replica_writes_per_write"] = ctr(telemetry.CtrReplReplicaWrites) / ctr(telemetry.CtrReplWrites)
		out["cluster.read_failovers"] = float64(res.Cluster.ReadFailovers)
		out["cluster.degraded_ios"] = float64(res.Cluster.DegradedIOs)
	}
	if len(res.QoS) > 0 {
		var taken, throttles float64
		for _, ts := range res.QoS {
			taken += float64(ts.Taken)
			throttles += float64(ts.Throttles)
		}
		out["qos.taken_bytes_per_io"] = perIO(taken)
		out["qos.throttles"] = throttles
	}
	return out
}
