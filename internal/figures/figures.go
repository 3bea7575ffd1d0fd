// Package figures regenerates every table and figure of the paper's
// evaluation (§3 and §5). Table lists them: a figure is a title, its
// columns and its rows, and each row is its label cells plus one complete
// run document (an exp.Config, an exp.H5Config or a Scale). A Runner runs
// each distinct document once and fills the row's Point; Format prints
// the series the paper plots. cmd/figures prints them, and the shape
// tests in this package assert the paper's headline ratios.
package figures

import (
	"cmp"
	"encoding/json"
	"fmt"
	"reflect"
	"slices"
	"strconv"
	"strings"
	"time"

	"nvmeoaf/internal/core"
	"nvmeoaf/internal/dial"
	"nvmeoaf/internal/exp"
	"nvmeoaf/internal/h5bench"
	"nvmeoaf/internal/model"
	"nvmeoaf/internal/perf"
	"nvmeoaf/internal/vol"
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

// Figure is one table or figure of the paper: the names it answers to
// (Fig 3 prints with Fig 2's rows, Fig 12 with Fig 11's), its title, and
// its columns and rows. Table 1 is a title alone.
type Figure struct {
	Names []string
	Title string
	Cols  []Column `json:"-"`
	Rows  []Row
}

// Column is one printed column: the row's next label when Field is
// empty, else the Point field Field printed with Verb. A negative Width
// left-aligns.
type Column struct {
	Head  string
	Width int
	Field string
	Verb  string
}

// Row is one data point: its label cells, the document that measures it
// (exp.Config, exp.H5Config or Scale), and the Point a Runner fills in.
type Row struct {
	Labels []string
	Doc    any
	Point  Point
}

// Scale is the document of a Fig 18/19 point: four h5bench kernels in
// the Case topology, SHMKernels of them over the shared-memory channel.
type Scale struct {
	Case       exp.ScaleCase
	SHMKernels int
	Seed       int64
}

// Point is what one run measured. A microbenchmark fills the bandwidth,
// the paper's latency breakdown (io/comm/other), the tail percentiles and
// the target pool memory; an h5bench or scale-out run fills the kernel
// bandwidths.
type Point struct {
	GBps                         float64
	AvgUs, IOUs, CommUs, OtherUs float64
	P99Us, P999Us, P9999Us       float64
	PoolMB                       float64
	WriteGBps, ReadGBps          float64
}

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
	fmt.Fprintf(&b, "  %-22s QD 128, 1 client per SSD, 4 KB .. 2 MB I/O", "workloads")
	return b.String()
}

// The sweep axes of Figs 9, 10, 14 and 15.
var (
	fig9Chunks  = []int{64 << 10, 128 << 10, 256 << 10, 512 << 10, 1 << 20, 2 << 20}
	fig9IOSizes = []int{64 << 10, 512 << 10, 2 << 20}
	fig10Polls  = []time.Duration{0, 25 * time.Microsecond, 50 * time.Microsecond, 100 * time.Microsecond}
	fig14QDs    = []int{1, 2, 4, 8, 16, 32, 64, 128}
	fig15Mixes  = []int{95, 50, 5}
)

// Table returns every table and figure in print order, with each row's
// document measured over o's window and seed.
func Table(o Options) []Figure {
	gbps := Column{"GB/s", 9, "GBps", ".3f"}
	us := func(head string, width int, field string) Column { return Column{head, width, field, ".1f"} }
	micro := []Column{{Head: "fabric", Width: -11}, {Head: "op", Width: -5}, {Head: "size", Width: 7}, gbps,
		us("avg_us", 9, "AvgUs"), us("io_us", 9, "IOUs"), us("comm_us", 9, "CommUs"),
		us("other_us", 9, "OtherUs"), us("p99.99_us", 10, "P9999Us")}
	h5 := []Column{{Head: "backend", Width: -14}, {"write_GB/s", 10, "WriteGBps", ".3f"}, {"read_GB/s", 10, "ReadGBps", ".3f"}}
	scale := append([]Column{{Head: "SHM%", Width: -8}}, h5[1:]...)

	row := func(doc any, labels ...string) Row { return Row{Labels: labels, Doc: doc} }
	// Figs 2 and 11: 4 clients to 4 SSDs, sequential read and write, 4 KB
	// and 128 KB; the latency split is Fig 3's and Fig 12's breakdown.
	readPct := map[string]int{"read": 100, "write": 0}
	microRows := func(kinds ...exp.Kind) (rows []Row) {
		for _, size := range []int{4 << 10, 128 << 10} {
			for _, op := range []string{"read", "write"} {
				for _, kind := range kinds {
					rows = append(rows, row(o.config(kind, 4, workload(true, readPct[op], size, 128)), string(kind), op, sizeLabel(size)))
				}
			}
		}
		return rows
	}

	// Fig 8: the sequential-read 512 KB single-stream ablation over the
	// four successive shared-memory designs, after the NVMe/TCP-25G
	// reference the paper compares the baseline against.
	designRows := func(readPct int) (rows []Row) {
		for _, d := range []core.Design{core.DesignSHMBaseline, core.DesignSHMLockFree, core.DesignSHMFlowCtl, core.DesignSHMZeroCopy} {
			c := o.config(exp.OAF, 1, workload(true, readPct, 512<<10, 128))
			c.Design = d
			rows = append(rows, row(c, d.String()))
		}
		return rows
	}
	fig8 := append([]Row{row(o.config(exp.TCP25G, 1, workload(true, 100, 512<<10, 128)), "tcp-25g(ref)")}, designRows(100)...)

	// Fig 9: the NVMe/TCP application-level chunk size for random reads
	// over 25 GbE, with the target buffer-pool memory it costs.
	var fig9 []Row
	for _, chunk := range fig9Chunks {
		for _, size := range fig9IOSizes {
			c := o.config(exp.TCP25G, 1, workload(false, 100, size, 64))
			c.TP = model.DefaultTCPTransport()
			c.TP.ChunkSize = chunk
			fig9 = append(fig9, row(c, sizeLabel(chunk), sizeLabel(size)))
		}
	}

	// Fig 10: the socket busy-poll budget for sequential 128 KB streams
	// over 10 GbE. The queue depth is chosen per workload so the polling
	// effects are not masked by wire saturation: writes run at QD8 (R2T
	// round trips dominate), reads at QD4 (the wire saturates above that
	// and flattens every budget).
	var fig10 []Row
	for _, w := range []struct {
		name        string
		readPct, qd int
	}{{"seq-write", 0, 8}, {"seq-read", 100, 4}} {
		for _, poll := range fig10Polls {
			c := o.config(exp.TCP10G, 4, workload(true, w.readPct, 128<<10, w.qd))
			c.TP = model.DefaultTCPTransport()
			c.TP.BusyPoll = poll
			fig10 = append(fig10, row(c, w.name, pollLabel(poll)))
		}
	}

	// Fig 13: tail latency of the sequential mixed 70:30 128 KB workload,
	// plus the long-run RDMA variant (3x the window) showing registration
	// events diluting out of the tail (§5.4). No warmup is excluded (the
	// tail of short-running applications is what the experiment studies),
	// and the queue depth is moderate so service latency, not queueing,
	// dominates.
	short := o
	short.Warmup = 0
	long := short
	long.Duration *= 3
	var fig13 []Row
	for _, kind := range []exp.Kind{exp.TCP10G, exp.TCP25G, exp.TCP100G, exp.RDMA56, exp.OAF} {
		fig13 = append(fig13, row(short.config(kind, 4, workload(true, 70, 128<<10, 4)), string(kind)))
	}
	fig13 = append(fig13, row(long.config(exp.RDMA56, 4, workload(true, 70, 128<<10, 4)), "rdma-ib56(3x run)"))

	// Fig 14: queue depth for one 128 KB sequential read stream on one
	// SSD; Fig 15: random 512 KB workloads of three read:write mixes.
	var fig14, fig15 []Row
	for _, kind := range []exp.Kind{exp.TCP25G, exp.TCP100G, exp.RoCE100, exp.OAF} {
		for _, qd := range fig14QDs {
			fig14 = append(fig14, row(o.config(kind, 1, workload(true, 100, 128<<10, qd)), string(kind), strconv.Itoa(qd)))
		}
	}
	for _, kind := range []exp.Kind{exp.TCP10G, exp.TCP25G, exp.TCP100G, exp.RDMA56, exp.RoCE100, exp.OAF} {
		for _, mix := range fig15Mixes {
			fig15 = append(fig15, row(o.config(kind, 1, workload(false, mix, 512<<10, 128)), string(kind), strconv.Itoa(mix)))
		}
	}

	// Figs 16 and 17: h5bench over oAF and NFS; Figs 18 and 19: the
	// scale-out shared-memory fraction sweeps.
	h5Rows := func(kernel h5bench.Config, backends ...exp.H5Backend) (rows []Row) {
		for _, b := range backends {
			rows = append(rows, row(exp.H5Config{Backend: b, Kernel: kernel, Seed: o.Seed}, string(b)))
		}
		return rows
	}
	scaleRows := func(c exp.ScaleCase, maxSHM int) (rows []Row) {
		for n := 0; n <= maxSHM; n++ {
			rows = append(rows, row(Scale{c, n, o.Seed}, strconv.Itoa(n*25)))
		}
		return rows
	}

	// The ablations of design choices beyond Fig 8, and two extensions
	// the paper leaves as future work; all answer to "ablations". The
	// in-capsule threshold sets the largest write that travels inside its
	// command capsule; 0 sends every write through an R2T round trip.
	var inCapsule []Row
	for _, thr := range []int{0, 8 << 10, 64 << 10} {
		c := o.config(exp.TCP25G, 1, workload(true, 0, 4<<10, 16))
		c.TP = model.DefaultTCPTransport()
		c.TP.InCapsuleThreshold = thr
		inCapsule = append(inCapsule, row(c, sizeLabel(thr)))
	}
	// The VOL coalescer's flush window under config-2's interleaved
	// datasets. 0 is the connector's 64M default, so that row is Fig 17's
	// oaf-coalesce document.
	var coalesce []Row
	for _, w := range []int{8 << 20, 16 << 20, 0} {
		coalesce = append(coalesce, row(exp.H5Config{Backend: exp.H5OAFCoalesce, Kernel: h5bench.Config2(),
			Seed: o.Seed, VOL: vol.Config{CoalesceBytes: w}}, sizeLabel(cmp.Or(w, 64<<20))))
	}
	// The registration cache: Fig 13's rdma-ib56 run under the legacy
	// registration model and with the mechanistic MR cache.
	legacy := short.config(exp.RDMA56, 4, workload(true, 70, 128<<10, 4))
	regCache := legacy
	regCache.RDMARegCache = true
	var rdmaCtl, streams []Row
	for _, kind := range []exp.Kind{exp.OAF, exp.OAFRDMACtl} {
		rdmaCtl = append(rdmaCtl, row(o.config(kind, 4, workload(true, 100, 4<<10, 16)), string(kind)))
	}
	for _, n := range []int{1, 2, 4, 8} {
		for _, kind := range []exp.Kind{exp.OAF, exp.TCP25G} {
			streams = append(streams, row(o.config(kind, n, workload(true, 100, 128<<10, 64)), string(kind), strconv.Itoa(n)))
		}
	}
	tail := []Column{us("avg_us", 9, "AvgUs"), us("p99_us", 9, "P99Us"), us("p99.9_us", 10, "P999Us"), us("p99.99_us", 10, "P9999Us")}

	return []Figure{
		{Names: []string{"table1"}, Title: Table1()},
		{[]string{"2", "3"}, "Fig 2+3: existing NVMe-oF transports, 4 clients x 4 SSDs (QD128); comm/io/other columns are the Fig 3 breakdown",
			micro, microRows(exp.TCP10G, exp.TCP25G, exp.TCP100G, exp.RDMA56)},
		{[]string{"8"}, "Fig 8: NVMe-oSHM design ablation (seq read 512K, 1 stream, QD128)",
			[]Column{{Head: "design", Width: -14}, gbps, us("p99.99_us", 12, "P9999Us")}, fig8},
		{[]string{"9"}, "Fig 9: chunk-size sweep, rand read over TCP-25G (QD64)",
			[]Column{{Head: "chunk", Width: -7}, {Head: "iosize", Width: -7}, gbps, us("pool_MB", 9, "PoolMB")}, fig9},
		{[]string{"10"}, "Fig 10: busy-poll sweep, seq 128K over TCP-10G (4 streams; QD8 writes, QD4 reads)",
			[]Column{{Head: "workload", Width: -10}, {Head: "poll", Width: -10}, gbps}, fig10},
		{[]string{"11", "12"}, "Fig 11+12: NVMe-oAF vs existing transports, 4 clients x 4 SSDs (QD128); comm/io/other columns are the Fig 12 breakdown",
			micro, microRows(exp.TCP10G, exp.TCP25G, exp.TCP100G, exp.RDMA56, exp.OAF)},
		{[]string{"13"}, "Fig 13: tail latency, seq mixed 70:30 128K (QD4, 4 streams)",
			append([]Column{{Head: "fabric", Width: -18}}, tail...), fig13},
		{[]string{"14"}, "Fig 14: concurrency, seq read 128K on one SSD",
			[]Column{{Head: "fabric", Width: -11}, {Head: "qd", Width: 5}, gbps}, fig14},
		{[]string{"15"}, "Fig 15: random mixed workloads, 512K, 1 stream (QD128)",
			[]Column{{Head: "fabric", Width: -11}, {Head: "read%", Width: 8}, gbps}, fig15},
		{[]string{"16"}, "Fig 16: h5bench config-1 (1 dataset x 16M particles)",
			h5, h5Rows(h5bench.Config1(), exp.H5OAF, exp.H5NFS)},
		{[]string{"17"}, "Fig 17: h5bench config-2 (8 datasets x 8M particles)",
			h5, h5Rows(h5bench.Config2(), exp.H5OAF, exp.H5NFS, exp.H5OAFCoalesce)},
		{[]string{"18"}, "Fig 18: scale-out case-1 (clients on one node, remote SSDs)", scale, scaleRows(exp.Case1, 3)},
		{[]string{"19"}, "Fig 19: scale-out case-2 (co-located clients and SSDs)", scale, scaleRows(exp.Case2, 4)},
		{[]string{"incapsule", "ablations"}, "Ablation: in-capsule write threshold, seq write 4K over TCP-25G (1 stream, QD16)",
			[]Column{{Head: "threshold", Width: -9}, gbps, us("avg_us", 9, "AvgUs"), us("p99.99_us", 10, "P9999Us")}, inCapsule},
		{[]string{"coalesce", "ablations"}, "Ablation: VOL coalescer flush window, h5bench config-2 over oaf-coalesce",
			append([]Column{{Head: "window", Width: -14}}, h5[1:]...), coalesce},
		{[]string{"shm-write", "ablations"}, "Ablation: NVMe-oSHM designs under seq write 512K (1 stream, QD128)",
			[]Column{{Head: "design", Width: -14}, gbps, us("p99.99_us", 12, "P9999Us")}, designRows(0)},
		{[]string{"regcache", "ablations"}, "Ablation: RDMA registration cache on Fig 13's rdma-ib56 run (seq mixed 70:30 128K, QD4, 4 streams)",
			append([]Column{{Head: "registration", Width: -18}}, tail...), []Row{row(legacy, "legacy"), row(regCache, "regcache")}},
		{[]string{"rdmactl", "ablations"}, "Extension: oAF control plane over intra-node RDMA, seq read 4K (4 streams, QD16)",
			[]Column{{Head: "fabric", Width: -16}, gbps, us("avg_us", 9, "AvgUs")}, rdmaCtl},
		{[]string{"streams", "ablations"}, "Extension: stream scaling on one host, seq read 128K (QD64 per stream)",
			[]Column{{Head: "fabric", Width: -11}, {Head: "streams", Width: 8}, gbps}, streams},
	}
}

// config is a microbenchmark row's document: w over o's window. It
// applies the zero-value rules, so the document names the design that
// runs.
func (o Options) config(kind exp.Kind, streams int, w perf.Workload) exp.Config {
	w.Duration, w.Warmup = o.Duration, o.Warmup
	c := exp.Config{Kind: kind, Streams: streams, Workload: w, Seed: o.Seed}
	c.Kind, c.Design = dial.Defaults(c.Kind, c.Design)
	return c
}

func workload(seq bool, readPct, size, qd int) perf.Workload {
	return perf.Workload{Seq: seq, ReadPct: readPct, IOSize: size, QueueDepth: qd}
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

func pollLabel(d time.Duration) string {
	if d == 0 {
		return "interrupt"
	}
	return d.String()
}

// Select returns every figure that answers to name, or every figure for
// "all".
func Select(figs []Figure, name string) ([]Figure, error) {
	if name == "all" {
		return figs, nil
	}
	var sel []Figure
	for _, f := range figs {
		if slices.Contains(f.Names, name) {
			sel = append(sel, f)
		}
	}
	if len(sel) == 0 {
		return nil, fmt.Errorf("unknown figure %q (try: table1, 2, 3, 8..19, %s, ablations, all)",
			name, strings.Join(Ablations(figs), ", "))
	}
	return sel, nil
}

// Ablations returns the first name of every figure that "ablations"
// selects, in print order.
func Ablations(figs []Figure) []string {
	var names []string
	for _, f := range figs {
		if slices.Contains(f.Names, "ablations") {
			names = append(names, f.Names[0])
		}
	}
	return names
}

// Runner runs row documents, each distinct one once: a figure that
// repeats another's rows (Fig 11 holds Fig 2's) reuses their points. It
// is not safe for concurrent use.
type Runner struct{ done map[string]Point }

// NewRunner returns a runner that has run nothing.
func NewRunner() *Runner { return &Runner{done: map[string]Point{}} }

// Run fills the Point of every row of f.
func (r *Runner) Run(f *Figure) error {
	for i := range f.Rows {
		p, err := r.Point(f.Rows[i].Doc)
		if err != nil {
			return fmt.Errorf("%s: %w", strings.Join(f.Rows[i].Labels, "/"), err)
		}
		f.Rows[i].Point = p
	}
	return nil
}

// Point runs doc, an exp.Config, exp.H5Config or Scale, unless this
// runner has run one with the same type and JSON.
func (r *Runner) Point(doc any) (Point, error) {
	b, err := json.Marshal(doc)
	if err != nil {
		return Point{}, fmt.Errorf("figures: encode a %T document: %w", doc, err)
	}
	key := fmt.Sprintf("%T%s", doc, b)
	if p, ok := r.done[key]; ok {
		return p, nil
	}
	var p Point
	switch d := doc.(type) {
	case exp.Config:
		var res *exp.Result
		if res, err = exp.Run(d); err == nil {
			a, us := res.Agg, func(ns int64) float64 { return float64(ns) / 1e3 }
			p = Point{GBps: a.Throughput.GBps(),
				AvgUs: a.BD.MeanTotal(), IOUs: a.BD.MeanIO(), CommUs: a.BD.MeanComm(), OtherUs: a.BD.MeanOther(),
				P99Us: us(a.Latency.P99()), P999Us: us(a.Latency.P999()), P9999Us: us(a.Latency.P9999()),
				PoolMB: float64(res.PoolFootprint) / 1e6}
		}
	case exp.H5Config:
		var res exp.H5Result
		if res, err = exp.RunH5(d); err == nil {
			p.WriteGBps, p.ReadGBps = res.Write.GBps(), res.Read.GBps()
		}
	case Scale:
		p.WriteGBps, p.ReadGBps, err = exp.RunH5Scale(d.Case, d.SHMKernels, d.Seed)
	default:
		err = fmt.Errorf("figures: no runner for a %T document", doc)
	}
	if err != nil {
		return Point{}, err
	}
	r.done[key] = p
	return p, nil
}

// Format renders f: its title, then a header and one line per row.
func Format(f Figure) string {
	var b strings.Builder
	b.WriteString(f.Title + "\n")
	if len(f.Cols) == 0 {
		return b.String()
	}
	b.WriteString(" ")
	for _, c := range f.Cols {
		fmt.Fprintf(&b, " %*s", c.Width, c.Head)
	}
	for _, r := range f.Rows {
		b.WriteString("\n ")
		labels := r.Labels
		for _, c := range f.Cols {
			if c.Field == "" {
				fmt.Fprintf(&b, " %*s", c.Width, labels[0])
				labels = labels[1:]
			} else {
				fmt.Fprintf(&b, " %*"+c.Verb, c.Width, reflect.ValueOf(r.Point).FieldByName(c.Field).Float())
			}
		}
	}
	b.WriteString("\n")
	return b.String()
}
