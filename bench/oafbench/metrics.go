package main

import (
	"encoding/json"

	"nvmeoaf/bench/layers"
)

// metricDef names one metric. The tables below are the single source of
// BENCHMARK.json (`oafbench -spec` prints it; a test compares the file).
//
// Two clocks, named in every metric. Units say which: `sim_us` and `1/sim_s`
// are virtual time, the modelled hardware's, identical for a fixed seed on
// any host; `ns`, `s`, `count` and `bytes` are what this Go program costs the
// host that runs it.
type metricDef struct {
	Name   string  `json:"name"`
	Unit   string  `json:"unit"`
	Better string  `json:"better"`
	Bound  float64 `json:"bound,omitempty"` // end-to-end only: share of the parent's median
}

const (
	higher = "higher"
	lower  = "lower"
)

// endToEnd are the metrics a user of the system sees, with the bound by
// which each may worsen before a change counts as a regression. The sim_*
// bounds are far above "identical", which is what a change that does not
// touch the model must deliver and what -diff reports when it holds; they are
// as wide as they are because the driver also compares runs of different
// seeds, whose offsets differ. Each is at least three times the spread (IQR /
// median) seen across ten seeds on the workload where it is widest.
var endToEnd = []metricDef{
	{"sim_iops", "1/sim_s", higher, 0.005},
	{"sim_lat_p50_us", "sim_us", lower, 0.01},
	{"sim_lat_p99_us", "sim_us", lower, 0.03},
	{"sim_lat_p999_us", "sim_us", lower, 0.15},
	{"wall_ns_per_io", "ns", lower, 0.10},
	{"allocs_per_io", "count", lower, 0.01},
	{"alloc_bytes_per_io", "bytes", lower, 0.03},
	{"setup_s", "s", lower, 0.25},
}

// counterDefs are the model counters read from a run's public outputs.
var counterDefs = []metricDef{
	{Name: "ssd.io_us", Unit: "sim_us", Better: lower},
	{Name: "netsim.comm_us", Unit: "sim_us", Better: lower},
	{Name: "session.other_us", Unit: "sim_us", Better: lower},
	{Name: "ssd.util", Unit: "fraction", Better: higher},
	{Name: "netsim.wire_bytes_per_io", Unit: "bytes", Better: lower},
	{Name: "shm.bytes_per_io", Unit: "bytes", Better: higher},
	{Name: "tcp.pdus_per_io", Unit: "count", Better: lower},
	{Name: "session.batch_submit_mean", Unit: "count", Better: higher},
	{Name: "session.reap_depth_mean", Unit: "count", Better: higher},
	{Name: "session.buffer_wait_p99_us", Unit: "sim_us", Better: lower},
	{Name: "session.shed_per_kio", Unit: "count", Better: lower},
	{Name: "session.retries_per_kio", Unit: "count", Better: lower},
	{Name: "session.timeouts_per_kio", Unit: "count", Better: lower},
	{Name: "shm.claim_wait_p99_us", Unit: "sim_us", Better: lower},
	{Name: "shm.futex_stalls_per_kio", Unit: "count", Better: lower},
	{Name: "mempool.peak_in_use_frac", Unit: "fraction", Better: lower},
	{Name: "mempool.exhausted", Unit: "count", Better: lower},
	{Name: "ring.submit_depth_mean", Unit: "count", Better: higher},
	{Name: "ring.reap_depth_mean", Unit: "count", Better: higher},
	{Name: "ring.sq_full_per_kio", Unit: "count", Better: lower},
	{Name: "cache.hit_ratio", Unit: "fraction", Better: higher},
	{Name: "cache.evict_per_kio", Unit: "count", Better: lower},
	{Name: "cache.bypass_per_kio", Unit: "count", Better: lower},
	{Name: "cache.wb_throttled_per_kio", Unit: "count", Better: lower},
	{Name: "cluster.replica_writes_per_write", Unit: "count", Better: lower},
	{Name: "cluster.read_failovers", Unit: "count", Better: lower},
	{Name: "cluster.degraded_ios", Unit: "count", Better: lower},
	{Name: "rdma.reg_miss_ratio", Unit: "fraction", Better: lower},
	{Name: "qos.taken_bytes_per_io", Unit: "bytes", Better: lower},
	{Name: "qos.throttles", Unit: "count", Better: lower},
	// The tail the percentile-support rule keeps out of the end-to-end
	// list: present only when the window completed >= 100 000 I/Os.
	{Name: "perf.sim_lat_p9999_us", Unit: "sim_us", Better: lower},
}

// perLayer lists every per-layer metric: profiler attribution per layer and
// runtime bucket, the traced pass's own accounting, the layer drivers, and
// the model counters.
var perLayer = func() []metricDef {
	var defs []metricDef
	for _, l := range layers.Names {
		defs = append(defs, metricDef{Name: l + ".cpu_ns_per_io", Unit: "ns", Better: lower})
	}
	for _, b := range []string{bucketGC, bucketSched, bucketOther} {
		defs = append(defs, metricDef{Name: b + "_cpu_ns_per_io", Unit: "ns", Better: lower})
	}
	defs = append(defs, metricDef{Name: "trace.cpu_overhead_frac", Unit: "fraction", Better: lower})
	for _, l := range layers.Names {
		defs = append(defs, metricDef{Name: l + ".allocs_per_io", Unit: "count", Better: lower})
	}
	defs = append(defs,
		metricDef{Name: bucketOther + "_allocs_per_io", Unit: "count", Better: lower},
		metricDef{Name: "trace.allocs_unattributed_frac", Unit: "fraction", Better: lower})
	for _, d := range layers.Drivers {
		defs = append(defs, metricDef{Name: d.Name + "_ns", Unit: "ns", Better: lower})
		if d.Allocs {
			defs = append(defs, metricDef{Name: d.Name + "_allocs", Unit: "count", Better: lower})
		}
	}
	return append(defs, counterDefs...)
}()

// spec is BENCHMARK.json.
type spec struct {
	Command    []string       `json:"command"`
	Paths      []string       `json:"paths"`
	RunSeconds int            `json:"run_seconds"`
	Workloads  []specWorkload `json:"workloads"`
	EndToEnd   []metricDef    `json:"end_to_end"`
	PerLayer   []metricDef    `json:"per_layer"`
}

type specWorkload struct {
	Name string `json:"name"`
	Why  string `json:"why"`
}

// runSeconds is how long one driver run measures (BENCHMARK.json
// run_seconds): the timed full runs of a workload start within it.
const runSeconds = 12

func benchmarkSpec() spec {
	s := spec{
		Command:    []string{"bash", "bench/run.sh"},
		Paths:      []string{"bench"},
		RunSeconds: runSeconds,
		EndToEnd:   endToEnd,
		PerLayer:   perLayer,
	}
	for _, w := range workloads {
		s.Workloads = append(s.Workloads, specWorkload{w.Name, w.Why})
	}
	return s
}

func (s spec) marshal() []byte {
	b, err := json.MarshalIndent(s, "", "  ")
	if err != nil {
		panic(err) // plain data: cannot fail
	}
	return append(b, '\n')
}
