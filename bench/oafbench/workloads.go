package main

import (
	"time"

	"nvmeoaf/internal/cache"
	"nvmeoaf/internal/exp"
	"nvmeoaf/internal/model"
	"nvmeoaf/internal/perf"
)

// workload is one fixed benchmark configuration. Every workload is a closed
// loop (perf.Stream keeps QueueDepth commands outstanding and resubmits on
// completion), so there is no offered rate: the client count is the queue
// depth. The measured virtual window is a constant, never calibrated, so two
// commits simulate the same I/Os and every sim_* number compares exactly.
type workload struct {
	Name string
	// Why is the one-line reason the workload exists (BENCHMARK.json).
	Why string
	// Path names the pre-flight data-integrity check that covers the
	// fabric path this workload drives (verify.go).
	Path string
	// cfg builds the run from the seed, which reaches the program only
	// through exp.Config.Seed.
	cfg func(seed int64) exp.Config
}

// quickDiv shortens every measured window for -quick smoke runs, whose
// output is stamped non-comparable.
const quickDiv = 20

const ms = time.Millisecond

// batched is the transport with capsule trains of 16, the setting the ring
// and cache acceptance tests of the repository use.
func batched() model.TCPTransportParams {
	tp := model.DefaultTCPTransport()
	tp.BatchSize = 16
	return tp
}

// workloads lists the five configurations in report order. Names are part of
// BENCHMARK.json and of every stored result; do not rename.
var workloads = []workload{
	{
		Name: "tcp4k_randread",
		Why:  "4 KiB reads on tcp-25g, one message per command: per-command fixed cost (sim, session, pdu, netsim) is all the work; ring, cache, shm and cluster are bypassed",
		Path: "tcp",
		cfg: func(seed int64) exp.Config {
			return exp.Config{Kind: exp.TCP25G, Seed: seed, Workload: perf.Workload{
				IOSize: 4096, QueueDepth: 64, ReadPct: 100,
				Warmup: 20 * ms, Duration: 6 * time.Second,
			}}
		},
	},
	{
		Name: "tcp128k_mixed_data",
		Why:  "128 KiB 70:30 on tcp-25g with real bytes end to end: payload chunking (R2T/H2C/C2H), pdu codec, mempool, netsim segmentation and the ssd page store dominate, and writes run beside reads",
		Path: "tcp",
		cfg: func(seed int64) exp.Config {
			return exp.Config{Kind: exp.TCP25G, Seed: seed, RetainData: true, SSDCapacity: 256 << 20, Workload: perf.Workload{
				IOSize: 128 << 10, QueueDepth: 32, ReadPct: 70,
				Warmup: 20 * ms, Duration: 8 * time.Second,
			}}
		},
	},
	{
		Name: "oaf4k_ring_striped",
		Why:  "tuned fast path: SQ/CQ ring over 4 striped nvme-oaf queues, trains of 16 through shm; session works per train here, per message on tcp4k_randread, so a gain for one shape that costs the other shows",
		Path: "oaf",
		cfg: func(seed int64) exp.Config {
			return exp.Config{Kind: exp.OAF, Seed: seed, Queues: 4, TP: batched(), Workload: perf.Workload{
				IOSize: 4096, QueueDepth: 256, ReadPct: 100, Ring: true,
				Warmup: 20 * ms, Duration: 2500 * ms,
			}}
		},
	},
	{
		Name: "oaf4k_cached_zipf_mixed",
		Why:  "Zipf 0.99 70:30 over a 2 GiB span behind a 256 MiB write-back cache that starts empty: the cache does most of the work and the ssd little; no other workload has a cache",
		Path: "oaf-cache",
		cfg: func(seed int64) exp.Config {
			return exp.Config{Kind: exp.OAF, Seed: seed, TP: batched(), CacheBytes: 256 << 20, CacheMode: cache.WriteBack, Workload: perf.Workload{
				IOSize: 4096, QueueDepth: 64, ReadPct: 70, Zipf: 0.99, Batch: 16,
				Warmup: 200 * ms, Duration: 1500 * ms,
			}}
		},
	},
	{
		Name: "cluster4_rdma4k_mixed",
		Why:  "4 targets, R=3/W=2 quorum writes over rdma-ib56, one tenant debited but never throttled: router fan-out, rdma binding, qos accounting; stalls and member time-outs show in the tail here first",
		Path: "cluster-rdma",
		cfg: func(seed int64) exp.Config {
			// R=3 with the majority quorum of 2: with R=2 every replica must
			// ack, and a member that times out twice (device stall, cold
			// memory registration) fails the write — one in 172 k on seed 7,
			// alone among seeds 1-40. The benchmark's contract wants
			// workloads on which no operation fails.
			return exp.Config{Kind: exp.RDMA56, Seed: seed, ClusterTargets: 4, ClusterReplicas: 3,
				// Provisioned ~100x above the offered load: every I/O is
				// debited (an unlimited tenant skips the token arithmetic)
				// and none is ever throttled.
				Tenants: []exp.TenantSpec{{Name: "t0", RateMBps: 100_000}},
				Workload: perf.Workload{
					IOSize: 4096, QueueDepth: 32, ReadPct: 70,
					Warmup: 20 * ms, Duration: 450 * ms,
				}}
		},
	},
}

// config resolves a workload for one run. setupOnly keeps everything but the
// measured window (topology build, connects, warm-up, drain, teardown), which
// is how set-up is separated from steady state: its cost is measured on its
// own and subtracted from a full run's.
func (w workload) config(seed int64, quick, setupOnly bool) exp.Config {
	c := w.cfg(seed)
	if quick {
		c.Workload.Duration /= quickDiv
	}
	if setupOnly {
		c.Workload.Duration = time.Microsecond
	}
	return c
}

func findWorkload(name string) (workload, bool) {
	for _, w := range workloads {
		if w.Name == name {
			return w, true
		}
	}
	return workload{}, false
}
