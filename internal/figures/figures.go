// Package figures regenerates every table and figure of the paper's
// evaluation (§3 and §5). Each FigNN function runs the corresponding
// experiment configuration on the simulated testbed and returns structured
// series; String renders the rows the paper plots. cmd/figures prints
// them, bench_test.go wraps them as benchmarks, and the shape tests in
// this package assert the paper's headline ratios.
package figures

import (
	"fmt"
	"strings"
	"time"

	"nvmeoaf/internal/core"
	"nvmeoaf/internal/exp"
	"nvmeoaf/internal/h5bench"
	"nvmeoaf/internal/model"
	"nvmeoaf/internal/perf"
)

// Options controls measurement windows for all figures.
type Options struct {
	// Duration is the measured window per data point (the paper runs
	// 20 s; 600 ms of simulated steady state reproduces the same means).
	Duration time.Duration
	// Warmup is excluded from measurement.
	Warmup time.Duration
	// Seed drives all randomness.
	Seed int64
}

// Defaults returns the standard measurement options.
func Defaults() Options {
	return Options{Duration: 600 * time.Millisecond, Warmup: 120 * time.Millisecond, Seed: 42}
}

// Quick returns shortened options for smoke tests.
func Quick() Options {
	return Options{Duration: 250 * time.Millisecond, Warmup: 50 * time.Millisecond, Seed: 42}
}

// micro runs one microbenchmark configuration.
func (o Options) micro(kind exp.Kind, streams int, w perf.Workload, mut func(*exp.Config)) (*exp.Result, error) {
	w.Duration = o.Duration
	w.Warmup = o.Warmup
	cfg := exp.Config{Kind: kind, Streams: streams, Workload: w, Seed: o.Seed}
	if mut != nil {
		mut(&cfg)
	}
	return exp.Run(cfg)
}

// MicroRow is one (fabric, workload) measurement.
type MicroRow struct {
	Fabric  exp.Kind
	Op      string // "read" or "write"
	IOSize  int
	GBps    float64
	AvgUs   float64
	IOUs    float64 // device component
	CommUs  float64 // fabric component
	OtherUs float64 // preparation/processing component
	P99Us   float64
	P999Us  float64
	P9999Us float64
}

func rowFrom(kind exp.Kind, op string, size int, res *exp.Result) MicroRow {
	return MicroRow{
		Fabric: kind, Op: op, IOSize: size,
		GBps:    res.Agg.Throughput.GBps(),
		AvgUs:   res.Agg.BD.MeanTotal(),
		IOUs:    res.Agg.BD.MeanIO(),
		CommUs:  res.Agg.BD.MeanComm(),
		OtherUs: res.Agg.BD.MeanOther(),
		P99Us:   float64(res.Agg.Latency.P99()) / 1e3,
		P999Us:  float64(res.Agg.Latency.P999()) / 1e3,
		P9999Us: float64(res.Agg.Latency.P9999()) / 1e3,
	}
}

// seqWorkload builds a sequential workload.
func seqWorkload(readPct, size, qd int) perf.Workload {
	return perf.Workload{Seq: true, ReadPct: readPct, IOSize: size, QueueDepth: qd}
}

// randWorkload builds a random workload.
func randWorkload(readPct, size, qd int) perf.Workload {
	return perf.Workload{Seq: false, ReadPct: readPct, IOSize: size, QueueDepth: qd}
}

// ------------------------------------------------------------------
// Table 1 — experiment configuration.

// Table1 renders the simulated testbed inventory, the counterpart of the
// paper's hardware table.
func Table1() string {
	ssd := model.DefaultSSD()
	var b strings.Builder
	fmt.Fprintf(&b, "Table 1: simulated testbed configuration\n")
	fmt.Fprintf(&b, "  %-22s %s\n", "Component", "Simulated equivalent")
	fmt.Fprintf(&b, "  %-22s %d flash channels, read %d MB/s + %v setup, write %d MB/s + %v setup\n",
		"NVMe-SSD (emulated)", ssd.Channels,
		int(ssd.ChannelReadBytesPerSec/1e6), ssd.ReadSetup,
		int(ssd.ChannelWriteBytesPerSec/1e6), ssd.WriteSetup)
	for _, lp := range []model.LinkParams{model.TCP10G(), model.TCP25G(), model.TCP100G(), model.Loopback()} {
		fmt.Fprintf(&b, "  %-22s wire %.2f GB/s, prop %v, stack %v+%.2fns/B, wakeup %v\n",
			lp.Name, lp.WireBytesPerSec/1e9, lp.Propagation, lp.PerMsgCPU, lp.PerByteCPUNanos, lp.WakeupPenalty)
	}
	for _, rp := range []model.RDMAParams{model.RDMA56G(), model.RoCE100G()} {
		fmt.Fprintf(&b, "  %-22s wire %.2f GB/s, prop %v, per-op %v, memreg %v\n",
			rp.Name, rp.WireBytesPerSec/1e9, rp.Propagation, rp.PerOpCPU, rp.MemRegCost)
	}
	shm := model.DefaultSHM()
	fmt.Fprintf(&b, "  %-22s memcpy %.1f GB/s, slot overhead %v, lock hold %v\n",
		"ivshmem region", shm.CopyBytesPerSec/1e9, shm.SlotOverhead, shm.LockHold)
	fmt.Fprintf(&b, "  %-22s QD 128, 1 client per SSD, 4 KB .. 2 MB I/O\n", "workloads")
	return b.String()
}

// ------------------------------------------------------------------
// Figures 2 & 3 — existing transports: bandwidth, latency, breakdown.

// Fig2Fabrics lists the transports of the characterization study.
var Fig2Fabrics = []exp.Kind{exp.TCP10G, exp.TCP25G, exp.TCP100G, exp.RDMA56}

// Fig2 measures bandwidth and average latency of the existing NVMe-oF
// transports: 4 clients to 4 SSDs, sequential read and write, 4 KB and
// 128 KB (Fig 2), with the latency decomposition of Fig 3 carried in the
// same rows.
func Fig2(o Options) ([]MicroRow, error) {
	var rows []MicroRow
	for _, size := range []int{4 << 10, 128 << 10} {
		for _, op := range []string{"read", "write"} {
			readPct := 100
			if op == "write" {
				readPct = 0
			}
			for _, kind := range Fig2Fabrics {
				res, err := o.micro(kind, 4, seqWorkload(readPct, size, 128), nil)
				if err != nil {
					return nil, err
				}
				rows = append(rows, rowFrom(kind, op, size, res))
			}
		}
	}
	return rows, nil
}

// Fig11 repeats Fig 2 with NVMe-oAF included: the overall-benefit figure.
func Fig11(o Options) ([]MicroRow, error) {
	fabrics := append(append([]exp.Kind{}, Fig2Fabrics...), exp.OAF)
	var rows []MicroRow
	for _, size := range []int{4 << 10, 128 << 10} {
		for _, op := range []string{"read", "write"} {
			readPct := 100
			if op == "write" {
				readPct = 0
			}
			for _, kind := range fabrics {
				res, err := o.micro(kind, 4, seqWorkload(readPct, size, 128), nil)
				if err != nil {
					return nil, err
				}
				rows = append(rows, rowFrom(kind, op, size, res))
			}
		}
	}
	return rows, nil
}

// FormatMicroRows renders rows as a table.
func FormatMicroRows(title string, rows []MicroRow) string {
	var b strings.Builder
	fmt.Fprintf(&b, "%s\n", title)
	fmt.Fprintf(&b, "  %-11s %-5s %7s %9s %9s %9s %9s %9s %10s\n",
		"fabric", "op", "size", "GB/s", "avg_us", "io_us", "comm_us", "other_us", "p99.99_us")
	for _, r := range rows {
		fmt.Fprintf(&b, "  %-11s %-5s %7s %9.3f %9.1f %9.1f %9.1f %9.1f %10.1f\n",
			r.Fabric, r.Op, sizeLabel(r.IOSize), r.GBps, r.AvgUs, r.IOUs, r.CommUs, r.OtherUs, r.P9999Us)
	}
	return b.String()
}

func sizeLabel(n int) string {
	switch {
	case n >= 1<<20:
		return fmt.Sprintf("%dM", n>>20)
	case n >= 1<<10:
		return fmt.Sprintf("%dK", n>>10)
	default:
		return fmt.Sprintf("%dB", n)
	}
}

// ------------------------------------------------------------------
// Figure 8 — the NVMe-oSHM design ablation.

// Fig8Row is one design's bandwidth and tail latency.
type Fig8Row struct {
	Design  string
	GBps    float64
	P9999Us float64
}

// Fig8 runs the sequential-read 512 KB single-stream ablation over the
// four successive shared-memory designs, plus the NVMe/TCP-25G reference
// the paper compares the baseline against.
func Fig8(o Options) ([]Fig8Row, error) {
	var rows []Fig8Row
	ref, err := o.micro(exp.TCP25G, 1, seqWorkload(100, 512<<10, 128), nil)
	if err != nil {
		return nil, err
	}
	rows = append(rows, Fig8Row{Design: "tcp-25g(ref)", GBps: ref.Agg.Throughput.GBps(),
		P9999Us: float64(ref.Agg.Latency.P9999()) / 1e3})
	for _, d := range []core.Design{core.DesignSHMBaseline, core.DesignSHMLockFree, core.DesignSHMFlowCtl, core.DesignSHMZeroCopy} {
		d := d
		res, err := o.micro(exp.OAF, 1, seqWorkload(100, 512<<10, 128), func(c *exp.Config) { c.Design = d })
		if err != nil {
			return nil, err
		}
		rows = append(rows, Fig8Row{Design: d.String(), GBps: res.Agg.Throughput.GBps(),
			P9999Us: float64(res.Agg.Latency.P9999()) / 1e3})
	}
	return rows, nil
}

// FormatFig8 renders the ablation.
func FormatFig8(rows []Fig8Row) string {
	var b strings.Builder
	fmt.Fprintf(&b, "Fig 8: NVMe-oSHM design ablation (seq read 512K, 1 stream, QD128)\n")
	fmt.Fprintf(&b, "  %-14s %9s %12s\n", "design", "GB/s", "p99.99_us")
	for _, r := range rows {
		fmt.Fprintf(&b, "  %-14s %9.3f %12.1f\n", r.Design, r.GBps, r.P9999Us)
	}
	return b.String()
}

// ------------------------------------------------------------------
// Figure 9 — chunk-size sweep.

// Fig9Row is one (chunk, ioSize) point.
type Fig9Row struct {
	Chunk  int
	IOSize int
	GBps   float64
	PoolMB float64
}

// Fig9Chunks and Fig9IOSizes are the sweep axes.
var (
	Fig9Chunks  = []int{64 << 10, 128 << 10, 256 << 10, 512 << 10, 1 << 20, 2 << 20}
	Fig9IOSizes = []int{64 << 10, 512 << 10, 2 << 20}
)

// Fig9 sweeps the NVMe/TCP application-level chunk size for random reads
// over 25 GbE and reports bandwidth and target buffer-pool memory.
func Fig9(o Options) ([]Fig9Row, error) {
	var rows []Fig9Row
	for _, chunk := range Fig9Chunks {
		for _, size := range Fig9IOSizes {
			chunk := chunk
			res, err := o.micro(exp.TCP25G, 1, randWorkload(100, size, 64), func(c *exp.Config) {
				c.TP = model.DefaultTCPTransport()
				c.TP.ChunkSize = chunk
			})
			if err != nil {
				return nil, err
			}
			rows = append(rows, Fig9Row{
				Chunk: chunk, IOSize: size,
				GBps:   res.Agg.Throughput.GBps(),
				PoolMB: float64(res.PoolFootprint) / 1e6,
			})
		}
	}
	return rows, nil
}

// FormatFig9 renders the sweep.
func FormatFig9(rows []Fig9Row) string {
	var b strings.Builder
	fmt.Fprintf(&b, "Fig 9: chunk-size sweep, rand read over TCP-25G (QD64)\n")
	fmt.Fprintf(&b, "  %-7s %-7s %9s %9s\n", "chunk", "iosize", "GB/s", "pool_MB")
	for _, r := range rows {
		fmt.Fprintf(&b, "  %-7s %-7s %9.3f %9.1f\n", sizeLabel(r.Chunk), sizeLabel(r.IOSize), r.GBps, r.PoolMB)
	}
	return b.String()
}

// ------------------------------------------------------------------
// Figure 10 — busy-poll duration sweep.

// Fig10Row is one (workload, poll budget) throughput point.
type Fig10Row struct {
	Workload string
	Poll     time.Duration
	GBps     float64
}

// Fig10Polls are the evaluated budgets (0 = interrupt mode).
var Fig10Polls = []time.Duration{0, 25 * time.Microsecond, 50 * time.Microsecond, 100 * time.Microsecond}

// Fig10 sweeps the socket busy-poll duration for sequential 128 KB read
// and write streams over 10 GbE (AF in TCP-only mode). The queue depth is
// chosen per workload so the polling effects are not masked by wire
// saturation: writes run at QD8 (R2T round trips dominate), reads at QD4
// (the wire saturates above that and flattens every budget).
func Fig10(o Options) ([]Fig10Row, error) {
	var rows []Fig10Row
	for _, wl := range []struct {
		name    string
		readPct int
		qd      int
	}{{"seq-write", 0, 8}, {"seq-read", 100, 4}} {
		for _, poll := range Fig10Polls {
			poll := poll
			res, err := o.micro(exp.TCP10G, 4, seqWorkload(wl.readPct, 128<<10, wl.qd), func(c *exp.Config) {
				c.TP = model.DefaultTCPTransport()
				c.TP.BusyPoll = poll
			})
			if err != nil {
				return nil, err
			}
			rows = append(rows, Fig10Row{Workload: wl.name, Poll: poll, GBps: res.Agg.Throughput.GBps()})
		}
	}
	return rows, nil
}

// FormatFig10 renders the sweep.
func FormatFig10(rows []Fig10Row) string {
	var b strings.Builder
	fmt.Fprintf(&b, "Fig 10: busy-poll sweep, seq 128K over TCP-10G (4 streams; QD8 writes, QD4 reads)\n")
	fmt.Fprintf(&b, "  %-10s %-10s %9s\n", "workload", "poll", "GB/s")
	for _, r := range rows {
		poll := "interrupt"
		if r.Poll > 0 {
			poll = r.Poll.String()
		}
		fmt.Fprintf(&b, "  %-10s %-10s %9.3f\n", r.Workload, poll, r.GBps)
	}
	return b.String()
}

// ------------------------------------------------------------------
// Figure 13 — tail latency, mixed 70:30 128 KB.

// Fig13Row is one fabric's latency percentiles.
type Fig13Row struct {
	Fabric  string
	AvgUs   float64
	P99Us   float64
	P999Us  float64
	P9999Us float64
}

// Fig13 measures tail latency for the sequential mixed 70:30 128 KB
// workload across fabrics, plus the long-run RDMA variant (3x the window)
// showing the registration events diluting out of the tail (§5.4). The
// run has no warmup exclusion (tail behaviour of short-running
// applications is exactly what the experiment studies) and a moderate
// queue depth so service latency, not queueing, dominates.
func Fig13(o Options) ([]Fig13Row, error) {
	o.Warmup = 0
	var rows []Fig13Row
	run := func(label string, kind exp.Kind, opts Options) error {
		opts.Warmup = 0
		res, err := opts.micro(kind, 4, seqWorkload(70, 128<<10, 4), nil)
		if err != nil {
			return err
		}
		rows = append(rows, Fig13Row{
			Fabric:  label,
			AvgUs:   res.Agg.BD.MeanTotal(),
			P99Us:   float64(res.Agg.Latency.P99()) / 1e3,
			P999Us:  float64(res.Agg.Latency.P999()) / 1e3,
			P9999Us: float64(res.Agg.Latency.P9999()) / 1e3,
		})
		return nil
	}
	for _, kind := range []exp.Kind{exp.TCP10G, exp.TCP25G, exp.TCP100G, exp.RDMA56, exp.OAF} {
		if err := run(string(kind), kind, o); err != nil {
			return nil, err
		}
	}
	long := o
	long.Duration = o.Duration * 3
	if err := run("rdma-ib56(3x run)", exp.RDMA56, long); err != nil {
		return nil, err
	}
	return rows, nil
}

// FormatFig13 renders the percentiles.
func FormatFig13(rows []Fig13Row) string {
	var b strings.Builder
	fmt.Fprintf(&b, "Fig 13: tail latency, seq mixed 70:30 128K (QD128, 4 streams)\n")
	fmt.Fprintf(&b, "  %-18s %9s %9s %10s %10s\n", "fabric", "avg_us", "p99_us", "p99.9_us", "p99.99_us")
	for _, r := range rows {
		fmt.Fprintf(&b, "  %-18s %9.1f %9.1f %10.1f %10.1f\n", r.Fabric, r.AvgUs, r.P99Us, r.P999Us, r.P9999Us)
	}
	return b.String()
}

// ------------------------------------------------------------------
// Figure 14 — concurrency (queue-depth) scaling.

// Fig14Row is one (fabric, qd) bandwidth point.
type Fig14Row struct {
	Fabric exp.Kind
	QD     int
	GBps   float64
}

// Fig14QDs is the swept queue depth axis.
var Fig14QDs = []int{1, 2, 4, 8, 16, 32, 64, 128}

// Fig14 sweeps queue depth for a single 128 KB sequential read stream on
// one SSD across fabrics.
func Fig14(o Options) ([]Fig14Row, error) {
	var rows []Fig14Row
	for _, kind := range []exp.Kind{exp.TCP25G, exp.TCP100G, exp.RoCE100, exp.OAF} {
		for _, qd := range Fig14QDs {
			res, err := o.micro(kind, 1, seqWorkload(100, 128<<10, qd), nil)
			if err != nil {
				return nil, err
			}
			rows = append(rows, Fig14Row{Fabric: kind, QD: qd, GBps: res.Agg.Throughput.GBps()})
		}
	}
	return rows, nil
}

// FormatFig14 renders the sweep.
func FormatFig14(rows []Fig14Row) string {
	var b strings.Builder
	fmt.Fprintf(&b, "Fig 14: concurrency, seq read 128K on one SSD\n")
	fmt.Fprintf(&b, "  %-11s %5s %9s\n", "fabric", "qd", "GB/s")
	for _, r := range rows {
		fmt.Fprintf(&b, "  %-11s %5d %9.3f\n", r.Fabric, r.QD, r.GBps)
	}
	return b.String()
}

// ------------------------------------------------------------------
// Figure 15 — random mixed workloads.

// Fig15Row is one (fabric, mix) throughput point.
type Fig15Row struct {
	Fabric  exp.Kind
	ReadPct int
	GBps    float64
}

// Fig15Mixes are the read percentages of the three random workloads.
var Fig15Mixes = []int{95, 50, 5}

// Fig15 measures random 512 KB workloads of varying read:write mix on a
// single stream/SSD.
func Fig15(o Options) ([]Fig15Row, error) {
	var rows []Fig15Row
	for _, kind := range []exp.Kind{exp.TCP10G, exp.TCP25G, exp.TCP100G, exp.RDMA56, exp.RoCE100, exp.OAF} {
		for _, mix := range Fig15Mixes {
			res, err := o.micro(kind, 1, randWorkload(mix, 512<<10, 128), nil)
			if err != nil {
				return nil, err
			}
			rows = append(rows, Fig15Row{Fabric: kind, ReadPct: mix, GBps: res.Agg.Throughput.GBps()})
		}
	}
	return rows, nil
}

// FormatFig15 renders the matrix.
func FormatFig15(rows []Fig15Row) string {
	var b strings.Builder
	fmt.Fprintf(&b, "Fig 15: random mixed workloads, 512K, 1 stream (QD128)\n")
	fmt.Fprintf(&b, "  %-11s %8s %9s\n", "fabric", "read%", "GB/s")
	for _, r := range rows {
		fmt.Fprintf(&b, "  %-11s %8d %9.3f\n", r.Fabric, r.ReadPct, r.GBps)
	}
	return b.String()
}

// ------------------------------------------------------------------
// Figures 16 & 17 — h5bench vs NFS.

// Fig16Row is one backend's write/read kernel bandwidth.
type Fig16Row struct {
	Backend string
	WriteGB float64
	ReadGB  float64
}

// Fig16 runs h5bench config-1 (one dataset, 16M particles) over oAF and
// NFS.
func Fig16(o Options) ([]Fig16Row, error) {
	var rows []Fig16Row
	for _, backend := range []exp.H5Backend{exp.H5OAF, exp.H5NFS} {
		res, err := exp.RunH5(exp.H5Config{Backend: backend, Kernel: h5bench.Config1(), Seed: o.Seed})
		if err != nil {
			return nil, err
		}
		rows = append(rows, Fig16Row{Backend: string(backend), WriteGB: res.Write.GBps(), ReadGB: res.Read.GBps()})
	}
	return rows, nil
}

// Fig17 runs h5bench config-2 (8 datasets, 8M particles each) over plain
// oAF, NFS, and oAF with I/O coalescing.
func Fig17(o Options) ([]Fig16Row, error) {
	var rows []Fig16Row
	for _, backend := range []exp.H5Backend{exp.H5OAF, exp.H5NFS, exp.H5OAFCoalesce} {
		res, err := exp.RunH5(exp.H5Config{Backend: backend, Kernel: h5bench.Config2(), Seed: o.Seed})
		if err != nil {
			return nil, err
		}
		rows = append(rows, Fig16Row{Backend: string(backend), WriteGB: res.Write.GBps(), ReadGB: res.Read.GBps()})
	}
	return rows, nil
}

// FormatH5 renders an h5bench comparison.
func FormatH5(title string, rows []Fig16Row) string {
	var b strings.Builder
	fmt.Fprintf(&b, "%s\n", title)
	fmt.Fprintf(&b, "  %-14s %10s %10s\n", "backend", "write_GB/s", "read_GB/s")
	for _, r := range rows {
		fmt.Fprintf(&b, "  %-14s %10.3f %10.3f\n", r.Backend, r.WriteGB, r.ReadGB)
	}
	return b.String()
}

// ------------------------------------------------------------------
// Figures 18 & 19 — scale-out SHM fraction sweeps.

// ScaleRow is one SHM-fraction point.
type ScaleRow struct {
	SHMPct  int
	WriteGB float64
	ReadGB  float64
}

// Fig18 sweeps the shared-memory fraction for case-1 (clients on one
// node, SSDs on four remote nodes; SHM kernels get co-located targets).
func Fig18(o Options) ([]ScaleRow, error) {
	return scaleSweep(exp.Case1, []int{0, 1, 2, 3}, o.Seed)
}

// Fig19 sweeps the shared-memory fraction for case-2 (clients co-located
// with their SSDs; non-SHM kernels use intra-node TCP).
func Fig19(o Options) ([]ScaleRow, error) {
	return scaleSweep(exp.Case2, []int{0, 1, 2, 3, 4}, o.Seed)
}

func scaleSweep(scase exp.ScaleCase, fractions []int, seed int64) ([]ScaleRow, error) {
	var rows []ScaleRow
	for _, n := range fractions {
		w, r, err := exp.RunH5Scale(scase, n, seed)
		if err != nil {
			return nil, err
		}
		rows = append(rows, ScaleRow{SHMPct: n * 25, WriteGB: w, ReadGB: r})
	}
	return rows, nil
}

// FormatScale renders a scale-out sweep.
func FormatScale(title string, rows []ScaleRow) string {
	var b strings.Builder
	fmt.Fprintf(&b, "%s\n", title)
	fmt.Fprintf(&b, "  %-8s %10s %10s\n", "SHM%", "write_GB/s", "read_GB/s")
	for _, r := range rows {
		fmt.Fprintf(&b, "  %-8d %10.3f %10.3f\n", r.SHMPct, r.WriteGB, r.ReadGB)
	}
	return b.String()
}
