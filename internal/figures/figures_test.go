package figures

import (
	"slices"
	"strconv"
	"testing"
	"time"
)

// runner is shared by every test in the package, so each distinct row
// document runs once per test binary: the calibration logs and the shape
// tests share points, and Fig 11 reuses Fig 2's.
var runner = NewRunner()

// figure returns the quick-window figure called name with its points.
func figure(t *testing.T, name string) Figure {
	t.Helper()
	figs, err := Select(Table(Quick()), name)
	if err != nil {
		t.Fatal(err)
	}
	if err := runner.Run(&figs[0]); err != nil {
		t.Fatal(err)
	}
	return figs[0]
}

// point returns the point of the row labelled labels.
func point(t *testing.T, f Figure, labels ...string) Point {
	t.Helper()
	for _, r := range f.Rows {
		if slices.Equal(r.Labels, labels) {
			return r.Point
		}
	}
	t.Fatalf("Fig %s: row %v not found", f.Names[0], labels)
	return Point{}
}

func TestFig2PaperShape(t *testing.T) {
	if testing.Short() {
		t.Skip("slow sweep; run without -short for the full shape check")
	}
	f := figure(t, "2")
	// 128K read bandwidth ordering: 10G < 25G < 100G < RDMA.
	prev := 0.0
	for _, fabric := range []string{"tcp-10g", "tcp-25g", "tcp-100g", "rdma-ib56"} {
		r := point(t, f, fabric, "read", "128K")
		if r.GBps <= prev {
			t.Fatalf("read ordering violated at %s: %.2f <= %.2f", fabric, r.GBps, prev)
		}
		prev = r.GBps
	}
	// Peak gaps (paper: RDMA ~1.46x TCP-100G read, ~1.85x write).
	readGap := point(t, f, "rdma-ib56", "read", "128K").GBps /
		point(t, f, "tcp-100g", "read", "128K").GBps
	if readGap < 1.2 || readGap > 1.9 {
		t.Fatalf("RDMA/TCP-100G read gap %.2f, paper ~1.46", readGap)
	}
	writeGap := point(t, f, "rdma-ib56", "write", "128K").GBps /
		point(t, f, "tcp-100g", "write", "128K").GBps
	if writeGap < 1.2 || writeGap > 2.3 {
		t.Fatalf("RDMA/TCP-100G write gap %.2f, paper ~1.85", writeGap)
	}
	// 4K: 25G barely beats 10G (network speed does not help small I/O).
	r10 := point(t, f, "tcp-10g", "read", "4K").GBps
	r25 := point(t, f, "tcp-25g", "read", "4K").GBps
	if r25 > r10*1.25 {
		t.Fatalf("4K: TCP-25G (%.2f) should be close to TCP-10G (%.2f)", r25, r10)
	}
	// Fig 3 breakdown: comm time dominates I/O time for TCP at 128K.
	bd := point(t, f, "tcp-10g", "read", "128K")
	if bd.CommUs <= bd.IOUs {
		t.Fatalf("TCP-10G 128K comm (%.0f) should dominate io (%.0f)", bd.CommUs, bd.IOUs)
	}
}

func TestFig11PaperShape(t *testing.T) {
	if testing.Short() {
		t.Skip("slow sweep; run without -short for the full shape check")
	}
	f := figure(t, "11")
	oaf := point(t, f, "nvme-oaf", "read", "128K")
	tcp10 := point(t, f, "tcp-10g", "read", "128K")
	rdma := point(t, f, "rdma-ib56", "read", "128K")
	// Paper: oAF ~7.1x TCP-10G peak read bandwidth, ~1.78x RDMA.
	if ratio := oaf.GBps / tcp10.GBps; ratio < 5 || ratio > 10 {
		t.Fatalf("oAF/TCP-10G read ratio %.2f, paper ~7.1", ratio)
	}
	if ratio := oaf.GBps / rdma.GBps; ratio < 1.3 {
		t.Fatalf("oAF/RDMA read ratio %.2f, paper ~1.78", ratio)
	}
	// Paper: TCP-10G 128K read latency ~4.2x oAF's.
	if ratio := tcp10.AvgUs / oaf.AvgUs; ratio < 3 || ratio > 12 {
		t.Fatalf("TCP-10G/oAF read latency ratio %.2f, paper ~4.2", ratio)
	}
	// Paper: TCP-25G 128K write latency ~2.97x oAF's.
	oafW := point(t, f, "nvme-oaf", "write", "128K")
	tcp25W := point(t, f, "tcp-25g", "write", "128K")
	if ratio := tcp25W.AvgUs / oafW.AvgUs; ratio < 2 || ratio > 8 {
		t.Fatalf("TCP-25G/oAF write latency ratio %.2f, paper ~2.97", ratio)
	}
	// Fig 12: oAF "other" time for writes is small (zero-copy removes the
	// client buffer preparation) compared to TCP's.
	tcpOther := point(t, f, "tcp-100g", "write", "128K").OtherUs
	if oafW.OtherUs > tcpOther/2 {
		t.Fatalf("oAF write other time %.0fus should be well under TCP's %.0fus", oafW.OtherUs, tcpOther)
	}
}

func TestFig8PaperShape(t *testing.T) {
	f := figure(t, "8")
	tcp := point(t, f, "tcp-25g(ref)")
	base := point(t, f, "shm-baseline")
	lf := point(t, f, "shm-lock-free")
	fc := point(t, f, "shm-flow-ctl")
	zc := point(t, f, "shm-0-copy")
	// Paper: naive shared memory already beats TCP-25G (~1.83x).
	if base.GBps < 1.2*tcp.GBps {
		t.Fatalf("baseline (%.2f) should beat TCP-25G (%.2f)", base.GBps, tcp.GBps)
	}
	// Paper: lock-free cuts p99.99 tail drastically (-38%).
	if lf.P9999Us > 0.75*base.P9999Us {
		t.Fatalf("lock-free tail %.0fus should be well under baseline %.0fus", lf.P9999Us, base.P9999Us)
	}
	// Each successive optimization must not lose bandwidth; the full
	// stack lands well above the baseline (paper: ~1.83x on top).
	if lf.GBps < base.GBps || fc.GBps < lf.GBps*0.98 || zc.GBps < fc.GBps {
		t.Fatalf("bandwidth should be monotone: %.2f %.2f %.2f %.2f",
			base.GBps, lf.GBps, fc.GBps, zc.GBps)
	}
	if zc.GBps < 1.8*base.GBps {
		t.Fatalf("full optimization stack (%.2f) should be >=1.8x baseline (%.2f)", zc.GBps, base.GBps)
	}
	// Zero-copy also trims the tail versus flow-ctl (paper: -22%).
	if zc.P9999Us > fc.P9999Us*1.05 {
		t.Fatalf("zero-copy tail %.0fus should not exceed flow-ctl %.0fus", zc.P9999Us, fc.P9999Us)
	}
}

func TestFig9PaperShape(t *testing.T) {
	f := figure(t, "9")
	at := func(chunk, size int) Point { return point(t, f, sizeLabel(chunk), sizeLabel(size)) }
	// Small chunks hurt large-I/O bandwidth (paper: "choosing a very low
	// chunk size hurts bandwidth").
	if at(64<<10, 2<<20).GBps >= at(512<<10, 2<<20).GBps*0.95 {
		t.Fatalf("64K chunk (%.2f) should clearly trail 512K chunk (%.2f) at 2M I/O",
			at(64<<10, 2<<20).GBps, at(512<<10, 2<<20).GBps)
	}
	// 512K is near-optimal: within 7% of the best chunk for every I/O
	// size (paper: "close to the highest bandwidth").
	for _, size := range fig9IOSizes {
		best := 0.0
		for _, chunk := range fig9Chunks {
			if g := at(chunk, size).GBps; g > best {
				best = g
			}
		}
		if got := at(512<<10, size).GBps; got < 0.93*best {
			t.Fatalf("512K chunk at %d I/O: %.3f vs best %.3f", size, got, best)
		}
	}
	// Memory grows linearly with chunk size (the reason not to use 2M).
	if at(2<<20, 64<<10).PoolMB < 3.9*at(512<<10, 64<<10).PoolMB {
		t.Fatalf("2M chunk pool (%.0f MB) should be ~4x 512K pool (%.0f MB)",
			at(2<<20, 64<<10).PoolMB, at(512<<10, 64<<10).PoolMB)
	}
}

func TestFig10PaperShape(t *testing.T) {
	f := figure(t, "10")
	at := func(wl string, poll time.Duration) float64 { return point(t, f, wl, pollLabel(poll)).GBps }
	// Writes: the long budget wins, the short budget underperforms it
	// and does not beat interrupt mode (paper §4.5).
	w0 := at("seq-write", 0)
	w25 := at("seq-write", 25*time.Microsecond)
	w100 := at("seq-write", 100*time.Microsecond)
	if w100 <= w25 {
		t.Fatalf("write: 100us (%.3f) should beat 25us (%.3f)", w100, w25)
	}
	if w25 > w0*1.01 {
		t.Fatalf("write: 25us (%.3f) should not beat interrupt (%.3f)", w25, w0)
	}
	// Reads: peak at 25-50us, degraded at 100us.
	r25 := at("seq-read", 25*time.Microsecond)
	r100 := at("seq-read", 100*time.Microsecond)
	r0 := at("seq-read", 0)
	if r25 < r0 {
		t.Fatalf("read: 25us (%.3f) should be at least interrupt (%.3f)", r25, r0)
	}
	if r100 > 0.95*r25 {
		t.Fatalf("read: 100us (%.3f) should degrade vs 25us (%.3f)", r100, r25)
	}
}

func TestFig13PaperShape(t *testing.T) {
	f := figure(t, "13")
	oaf := point(t, f, "nvme-oaf")
	tcp100 := point(t, f, "tcp-100g")
	rdma := point(t, f, "rdma-ib56")
	long := point(t, f, "rdma-ib56(3x run)")
	// Paper: oAF tail ~3x below TCP-100G and RDMA.
	if tcp100.P9999Us < 1.7*oaf.P9999Us {
		t.Fatalf("TCP-100G tail %.0f should be ~3x oAF %.0f", tcp100.P9999Us, oaf.P9999Us)
	}
	if rdma.P9999Us < 1.7*oaf.P9999Us {
		t.Fatalf("RDMA tail %.0f should be ~3x oAF %.0f", rdma.P9999Us, oaf.P9999Us)
	}
	// RDMA's average stays competitive while its tail blows up
	// (registration overheads, §5.4).
	if rdma.P999Us < 2.5*rdma.AvgUs {
		t.Fatalf("RDMA p99.9 %.0f should blow past its avg %.0f", rdma.P999Us, rdma.AvgUs)
	}
	// The 3x-longer run dilutes the registration events out of p99.9.
	if long.P999Us > 0.7*rdma.P999Us {
		t.Fatalf("long-run RDMA p99.9 %.0f should drop well below short-run %.0f", long.P999Us, rdma.P999Us)
	}
}

func TestFig14PaperShape(t *testing.T) {
	if testing.Short() {
		t.Skip("slow sweep; run without -short for the full shape check")
	}
	f := figure(t, "14")
	at := func(fabric string, qd int) float64 { return point(t, f, fabric, strconv.Itoa(qd)).GBps }
	// TCP: queue depth beyond 8 barely helps (paper: "almost constant").
	if at("tcp-25g", 128) > 1.6*at("tcp-25g", 8) {
		t.Fatalf("TCP-25G should flatten after QD8: %.2f vs %.2f", at("tcp-25g", 128), at("tcp-25g", 8))
	}
	// oAF: near-linear scaling until the device limit.
	if at("nvme-oaf", 8) < 3.5*at("nvme-oaf", 1) {
		t.Fatalf("oAF QD8 (%.2f) should be ~8x QD1 (%.2f)", at("nvme-oaf", 8), at("nvme-oaf", 1))
	}
	// oAF at QD1 gains little (control-plane overhead, §5.5): it should
	// not beat RoCE there.
	if at("nvme-oaf", 1) > at("roce-100g", 1) {
		t.Fatalf("oAF QD1 (%.3f) should trail RoCE (%.3f): control overhead", at("nvme-oaf", 1), at("roce-100g", 1))
	}
	// At saturation oAF reaches the device limit, far above TCP.
	if at("nvme-oaf", 128) < 2.5*at("tcp-25g", 128) {
		t.Fatalf("oAF saturated (%.2f) should be >>TCP (%.2f)", at("nvme-oaf", 128), at("tcp-25g", 128))
	}
}

func TestFig15PaperShape(t *testing.T) {
	f := figure(t, "15")
	at := func(fabric string, mix int) float64 { return point(t, f, fabric, strconv.Itoa(mix)).GBps }
	for _, mix := range fig15Mixes {
		// Paper: network speed has slight impact on TCP throughput.
		if at("tcp-100g", mix) > 1.25*at("tcp-10g", mix) {
			t.Fatalf("mix %d: TCP insensitive to network speed expected", mix)
		}
		// Paper: oAF ~2.33x TCP-100G on average; within ~15% of RDMA.
		ratio := at("nvme-oaf", mix) / at("tcp-100g", mix)
		if ratio < 1.8 || ratio > 4 {
			t.Fatalf("mix %d: oAF/TCP-100G ratio %.2f, paper ~2.33", mix, ratio)
		}
		if rd := at("nvme-oaf", mix) / at("rdma-ib56", mix); rd < 0.85 || rd > 1.3 {
			t.Fatalf("mix %d: oAF within ~15%% of RDMA expected, got %.2f", mix, rd)
		}
	}
}

func TestTable1Renders(t *testing.T) {
	s := Table1()
	if len(s) < 200 {
		t.Fatalf("table too short:\n%s", s)
	}
}

// TestAblationShapes: the ablation and extension figures show what
// EXPERIMENTS.md says of them.
func TestAblationShapes(t *testing.T) {
	if testing.Short() {
		t.Skip("slow sweep; run without -short for the full shape check")
	}
	// Sending every 4K write through an R2T round trip costs latency.
	inCapsule := figure(t, "incapsule")
	if off, on := point(t, inCapsule, "0B").AvgUs, point(t, inCapsule, "8K").AvgUs; off <= on {
		t.Errorf("in-capsule threshold 0: avg %.1f us, not above 8K's %.1f us", off, on)
	}
	// A wider coalescer window flushes deeper and writes faster.
	coalesce := figure(t, "coalesce")
	w := func(window string) float64 { return point(t, coalesce, window).WriteGBps }
	if w("8M") >= w("16M") || w("16M") >= w("64M") {
		t.Errorf("coalescer write GB/s at 8M/16M/64M windows: %.3f/%.3f/%.3f, not rising", w("8M"), w("16M"), w("64M"))
	}
	// The MR cache takes the registration spikes out of the tail.
	regCache := figure(t, "regcache")
	if rc, lg := point(t, regCache, "regcache").P9999Us, point(t, regCache, "legacy").P9999Us; rc >= lg {
		t.Errorf("regcache p99.99 %.1f us, not below the legacy model's %.1f us", rc, lg)
	}
	// An RDMA control plane cuts small-I/O latency.
	rdmaCtl := figure(t, "rdmactl")
	if ctl, tcp := point(t, rdmaCtl, "nvme-oaf-rdmactl").AvgUs, point(t, rdmaCtl, "nvme-oaf").AvgUs; ctl >= tcp {
		t.Errorf("rdmactl avg %.1f us, not below nvme-oaf's %.1f us", ctl, tcp)
	}
	// oAF scales with streams; TCP-25G's shared wire is full by 4.
	streams := figure(t, "streams")
	at := func(fabric string, n int) float64 { return point(t, streams, fabric, strconv.Itoa(n)).GBps }
	if at("nvme-oaf", 8) < 7*at("nvme-oaf", 1) {
		t.Errorf("nvme-oaf: 8 streams %.3f GB/s, under 7x 1 stream's %.3f", at("nvme-oaf", 8), at("nvme-oaf", 1))
	}
	if s4, s8 := at("tcp-25g", 4), at("tcp-25g", 8); s8 > 1.1*s4 || s8 < 0.9*s4 {
		t.Errorf("tcp-25g: 8 streams %.3f GB/s, not within 10%% of 4 streams' %.3f", s8, s4)
	}
}
