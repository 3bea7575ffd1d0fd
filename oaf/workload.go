package oaf

import (
	"time"

	nvhost "nvmeoaf/internal/host"
	"nvmeoaf/internal/nvme"
	"nvmeoaf/internal/perf"
	"nvmeoaf/internal/stats"
)

// Workload describes a microbenchmark pattern for RunWorkload, mirroring
// SPDK perf's knobs.
type Workload struct {
	// Sequential selects sequential offsets; otherwise random.
	Sequential bool
	// Zipf skews random offsets to a hot set with this theta (YCSB's
	// hot-set knob; 0.99 is the standard skew). Zero keeps the uniform
	// pattern; ignored for sequential workloads.
	Zipf float64
	// ReadPercent is the read share (100 = pure read).
	ReadPercent int
	// IOSize is the request size in bytes.
	IOSize int
	// QueueDepth is the number of outstanding commands.
	QueueDepth int
	// Span is the working-set size (defaults to 1 GiB).
	Span int64
	// Duration is the measured window.
	Duration time.Duration
}

// WorkloadResult summarizes a measured run.
type WorkloadResult struct {
	// GBps is bandwidth in 1e9 bytes per second.
	GBps float64
	// IOPS is operations per second.
	IOPS float64
	// AvgLatency is the mean end-to-end latency.
	AvgLatency time.Duration
	// P99, P9999 are tail latencies.
	P99, P9999 time.Duration
	// DeviceTime, FabricTime, OtherTime are the mean per-request
	// components of the paper's latency breakdown.
	DeviceTime, FabricTime, OtherTime time.Duration
	// CDF is the latency distribution at standard quantiles.
	CDF []stats.CDFPoint
	// Errors counts failed commands.
	Errors int64
}

// RunWorkload drives the workload against the queue from this context's
// process and blocks until the measured window completes.
func (ctx *Ctx) RunWorkload(q *Queue, w Workload) (*WorkloadResult, error) {
	stream := perf.NewStream(ctx.cluster.w.Engine, "oaf-workload", q.inner, perf.Workload{
		Seq:        w.Sequential,
		Zipf:       w.Zipf,
		ReadPct:    w.ReadPercent,
		IOSize:     w.IOSize,
		QueueDepth: w.QueueDepth,
		Span:       w.Span,
		Duration:   w.Duration,
	}, nil)
	stream.Start()
	res := stream.Wait(ctx.proc)
	us := func(v float64) time.Duration { return time.Duration(v * 1e3) }
	return &WorkloadResult{
		GBps:       res.Throughput.GBps(),
		IOPS:       res.Throughput.IOPS(),
		AvgLatency: us(res.BD.MeanTotal()),
		P99:        time.Duration(res.Latency.P99()),
		P9999:      time.Duration(res.Latency.P9999()),
		DeviceTime: us(res.BD.MeanIO()),
		FabricTime: us(res.BD.MeanComm()),
		OtherTime:  us(res.BD.MeanOther()),
		CDF:        res.Latency.CDF(),
		Errors:     res.Errors,
	}, nil
}

// DiscoveredSubsystem is one entry of a target's discovery log.
type DiscoveredSubsystem struct {
	NQN       string
	Transport string
	Address   string
}

// Discover fetches the discovery log through this queue: the subsystems
// the connected target exposes.
func (q *Queue) Discover() ([]DiscoveredSubsystem, error) {
	entries, err := nvhost.Discover(q.ctx.proc, q.inner)
	if err != nil {
		return nil, err
	}
	out := make([]DiscoveredSubsystem, 0, len(entries))
	for _, e := range entries {
		tr := "tcp"
		switch e.TrType {
		case nvme.TrTypeRDMA:
			tr = "rdma"
		case nvme.TrTypeAdaptive:
			tr = "adaptive"
		}
		out = append(out, DiscoveredSubsystem{NQN: e.SubNQN, Transport: tr, Address: e.TrAddr})
	}
	return out, nil
}
