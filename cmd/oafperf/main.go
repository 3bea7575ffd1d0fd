// Command oafperf is the SPDK-perf equivalent: it runs one microbenchmark
// against simulated NVMe-oF targets and prints one JSON report of
// bandwidth, IOPS, latency percentiles, the paper's three-way latency
// breakdown and the fabric's telemetry.
//
// Its only input is a JSON document of exp.Config overrides, decoded on
// top of a base run (nvme-oaf, shm-0-copy, 128 KiB sequential reads at
// QD 128 for 1 s after 100 ms of warm-up, seed 42, stock TCP transport
// parameters, tune period 50 ms). A field the document leaves out keeps
// its base value, nested ones included; durations are nanoseconds;
// designs, cache modes and SLO tiers are named. An unknown field is an
// error. Examples:
//
//	oafperf '{"Kind": "tcp-25g", "Workload": {"Seq": false, "ReadPct": 70, "IOSize": 524288}}'
//	oafperf '{"Design": "shm-lock-free", "TP": {"BatchSize": 16}, "Workload": {"Batch": 16, "Ring": true}}'
//	oafperf '{"CacheBytes": 268435456, "CacheMode": "wb", "Workload": {"Seq": false, "Zipf": 0.99}}'
//	oafperf '{"Tenants": [{"Name": "polite", "SLO": "latency"}, {"Name": "greedy", "RateMBps": 300}]}'
//
// The exit status is 2 for a document that does not decode, 1 when the
// run fails or any I/O errors, and 0 otherwise.
package main

import (
	"encoding/json"
	"errors"
	"fmt"
	"io"
	"os"
	"strings"
	"time"

	"nvmeoaf/internal/cache"
	"nvmeoaf/internal/cluster"
	"nvmeoaf/internal/core"
	"nvmeoaf/internal/exp"
	"nvmeoaf/internal/faults"
	"nvmeoaf/internal/mempool"
	"nvmeoaf/internal/model"
	"nvmeoaf/internal/perf"
	"nvmeoaf/internal/qos"
	"nvmeoaf/internal/stats"
	"nvmeoaf/internal/telemetry"
	"nvmeoaf/internal/tune"
)

func main() { os.Exit(run(os.Args[1:], os.Stdout, os.Stderr)) }

// run decodes the override document in args (the base run when args is
// empty), runs it and writes the report to stdout; it returns the exit
// status.
func run(args []string, stdout, stderr io.Writer) int {
	if len(args) > 1 {
		fmt.Fprintln(stderr, "usage: oafperf ['<exp.Config JSON overrides>']")
		return 2
	}
	doc := "{}"
	if len(args) == 1 {
		doc = args[0]
	}
	cfg, err := decode(doc)
	if err != nil {
		fmt.Fprintln(stderr, "oafperf:", err)
		return 2
	}
	res, err := exp.Run(cfg)
	if err == nil {
		enc := json.NewEncoder(stdout)
		enc.SetIndent("", "  ")
		err = enc.Encode(newReport(cfg, res))
	}
	if err != nil {
		fmt.Fprintln(stderr, "oafperf:", err)
		return 1
	}
	if res.Agg.Errors > 0 {
		return 1
	}
	return 0
}

// base is the run a document overrides.
func base() exp.Config {
	return exp.Config{
		Kind: exp.OAF, Design: core.DesignSHMZeroCopy, Streams: 1, Queues: 1,
		Workload: perf.Workload{
			Seq: true, ReadPct: 100, IOSize: 128 << 10, QueueDepth: 128,
			Duration: time.Second, Warmup: 100 * time.Millisecond,
		},
		TP: model.DefaultTCPTransport(), Seed: 42, TunePeriod: 50 * time.Millisecond,
	}
}

// decode applies one JSON document of overrides to the base run.
func decode(doc string) (exp.Config, error) {
	cfg := base()
	dec := json.NewDecoder(strings.NewReader(doc))
	dec.DisallowUnknownFields()
	if err := dec.Decode(&cfg); err != nil {
		return cfg, err
	}
	if _, err := dec.Token(); err != io.EOF {
		return cfg, errors.New("trailing data after the document")
	}
	return cfg, nil
}

// report is the run's one output document.
type report struct {
	Config    exp.Config         `json:"config"`
	Perf      summary            `json:"perf"`
	Breakdown breakdown          `json:"breakdown"`
	Streams   []summary          `json:"streams"`
	SSDs      []ssdReport        `json:"ssds"`
	WireBytes int64              `json:"wire_bytes"`
	SHMBytes  int64              `json:"shm_bytes"`
	Telemetry telemetry.Snapshot `json:"telemetry"`
	Pools     []mempool.Stats    `json:"pools,omitempty"`
	Caches    []cacheReport      `json:"caches,omitempty"`
	Cluster   *cluster.Stats     `json:"cluster,omitempty"`
	Faults    []faults.Event     `json:"faults,omitempty"`
	Tuner     *tune.Report       `json:"tuner,omitempty"`
	QoS       []qos.TenantStats  `json:"qos,omitempty"`
	Tenants   []tenantReport     `json:"tenants,omitempty"`
}

// summary is one result's bandwidth, rate and latency quantiles.
type summary struct {
	GBps    float64 `json:"gbps"`
	IOPS    float64 `json:"iops"`
	AvgUs   float64 `json:"avg_us"`
	P50Us   float64 `json:"p50_us"`
	P99Us   float64 `json:"p99_us"`
	P999Us  float64 `json:"p999_us"`
	P9999Us float64 `json:"p9999_us"`
	Errors  int64   `json:"errors"`
}

func summarize(th stats.Throughput, lat *stats.Histogram, bd stats.Breakdown, errs int64) summary {
	us := func(ns int64) float64 { return float64(ns) / 1e3 }
	return summary{th.GBps(), th.IOPS(), bd.MeanTotal(), us(lat.P50()), us(lat.P99()), us(lat.P999()), us(lat.P9999()), errs}
}

// breakdown is the paper's mean per-request split of the latency.
type breakdown struct {
	IOUs    float64 `json:"io_us"`
	CommUs  float64 `json:"comm_us"`
	OtherUs float64 `json:"other_us"`
}

// ssdReport is one device's busy fraction and op counts.
type ssdReport struct {
	Util     float64 `json:"util"`
	ReadOps  int64   `json:"read_ops"`
	WriteOps int64   `json:"write_ops"`
}

// cacheReport adds the all-time hit fraction to a cache's accounting.
type cacheReport struct {
	cache.Stats
	HitRate float64 `json:"hit_rate"`
}

// tenantReport is the merged result of one tenant's streams; its
// ledger is under qos and its counters under telemetry.tenants.
type tenantReport struct {
	Name string `json:"name"`
	summary
}

func newReport(cfg exp.Config, res *exp.Result) report {
	agg := res.Agg
	r := report{
		Config:    cfg,
		Perf:      summarize(agg.Throughput, agg.Latency, agg.BD, agg.Errors),
		Breakdown: breakdown{agg.BD.MeanIO(), agg.BD.MeanComm(), agg.BD.MeanOther()},
		WireBytes: res.WireBytes, SHMBytes: res.SHMBytes,
		Telemetry: res.Telemetry.Snapshot(),
		Pools:     res.Pools, Cluster: res.Cluster, Faults: res.FaultLog, Tuner: res.Tuner, QoS: res.QoS,
	}
	byTenant := make(map[string][]*perf.Result)
	for i, s := range res.PerStream {
		r.Streams = append(r.Streams, summarize(s.Throughput, s.Latency, s.BD, s.Errors))
		name := cfg.TenantFor(i).Name
		byTenant[name] = append(byTenant[name], s)
	}
	for _, ts := range cfg.Tenants {
		m := perf.Merge(byTenant[ts.Name]...)
		r.Tenants = append(r.Tenants, tenantReport{ts.Name, summarize(m.Throughput, m.Latency, m.BD, m.Errors)})
	}
	for _, dev := range res.Devices {
		d := dev.SSD()
		r.SSDs = append(r.SSDs, ssdReport{d.Utilization(), d.ReadOps, d.WriteOps})
	}
	for _, cs := range res.CacheStats {
		r.Caches = append(r.Caches, cacheReport{cs, cs.HitRate()})
	}
	return r
}
