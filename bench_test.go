// Package nvmeoaf's benchmark harness: ablation benches for the design
// choices called out in DESIGN.md beyond the paper's own Fig 8 ablation,
// and two extension benches. Each runs a deterministic simulation and
// reports its headline metrics via b.ReportMetric (GB/s, microseconds):
//
//	go test -bench=. -benchmem
//
// The paper's tables and figures (every row it plots) come from
// `go run ./cmd/figures -fig all`, which CI diffs against
// figures_output.txt.
package nvmeoaf

import (
	"strings"
	"testing"
	"time"

	"nvmeoaf/internal/core"
	"nvmeoaf/internal/exp"
	"nvmeoaf/internal/h5bench"
	"nvmeoaf/internal/model"
	"nvmeoaf/internal/perf"
	"nvmeoaf/internal/shm"
	"nvmeoaf/internal/sim"
	"nvmeoaf/internal/vol"
)

// report publishes a named metric once per run. Names are sanitized:
// testing.B rejects units containing whitespace.
func report(b *testing.B, name string, v float64) {
	b.ReportMetric(v, strings.ReplaceAll(name, " ", "_"))
}

// runMicro executes one microbenchmark configuration for the ablations.
func runMicro(b *testing.B, cfg exp.Config) *exp.Result {
	b.Helper()
	cfg.Workload.Duration = 250 * time.Millisecond
	cfg.Workload.Warmup = 50 * time.Millisecond
	cfg.Seed = 42
	res, err := exp.Run(cfg)
	if err != nil {
		b.Fatal(err)
	}
	return res
}

// BenchmarkAblationSlotPolicy compares round-robin against free-list slot
// claiming in the lock-free double buffer.
func BenchmarkAblationSlotPolicy(b *testing.B) {
	for i := 0; i < b.N; i++ {
		for _, policy := range []shm.ClaimPolicy{shm.ClaimRoundRobin, shm.ClaimFreeList} {
			policy := policy
			e := sim.NewEngine(42)
			params := model.DefaultSHM()
			region, err := shm.NewRegion(e, 1, 128<<10, 64, params, shm.ModeLockFree, policy)
			if err != nil {
				b.Fatal(err)
			}
			var done sim.Time
			e.Go("driver", func(p *sim.Proc) {
				for j := 0; j < 5000; j++ {
					s := region.Claim(p, shm.H2C)
					s.CopyIn(p, nil, 128<<10)
					s.Release()
				}
				done = p.Now()
			})
			if err := e.Run(); err != nil {
				b.Fatal(err)
			}
			name := "roundrobin"
			if policy == shm.ClaimFreeList {
				name = "freelist"
			}
			report(b, name+"_us_per_op", done.Micros()/5000)
		}
	}
}

// BenchmarkAblationInCapsuleThreshold sweeps the NVMe/TCP in-capsule
// write threshold around the spec's 8K split.
func BenchmarkAblationInCapsuleThreshold(b *testing.B) {
	for i := 0; i < b.N; i++ {
		for _, thr := range []int{0, 8 << 10, 64 << 10} {
			tp := model.DefaultTCPTransport()
			tp.InCapsuleThreshold = thr
			res := runMicro(b, exp.Config{
				Kind:     exp.TCP25G,
				Streams:  1,
				Workload: perf.Workload{Seq: true, ReadPct: 0, IOSize: 4096, QueueDepth: 16},
				TP:       tp,
			})
			report(b, "thr"+itoa(thr>>10)+"K_us", res.Agg.BD.MeanTotal())
		}
	}
}

// BenchmarkAblationCoalesceWindow sweeps the VOL coalescer's flush
// threshold for the h5bench config-2 write kernel.
func BenchmarkAblationCoalesceWindow(b *testing.B) {
	for i := 0; i < b.N; i++ {
		for _, window := range []int{8 << 20, 16 << 20, 64 << 20} {
			res, err := exp.RunH5(exp.H5Config{
				Backend: exp.H5OAFCoalesce,
				Kernel:  h5bench.Config2(),
				Seed:    42,
				VOL:     volConfig(window),
			})
			if err != nil {
				b.Fatal(err)
			}
			report(b, "win"+itoa(window>>20)+"M_write_GBps", res.Write.GBps())
		}
	}
}

// BenchmarkAblationSHMDesignsUnderWrite compares the four designs under a
// pure write workload (the Fig 8 ablation uses reads).
func BenchmarkAblationSHMDesignsUnderWrite(b *testing.B) {
	for i := 0; i < b.N; i++ {
		for _, d := range []core.Design{core.DesignSHMBaseline, core.DesignSHMLockFree, core.DesignSHMFlowCtl, core.DesignSHMZeroCopy} {
			res := runMicro(b, exp.Config{
				Kind:     exp.OAF,
				Design:   d,
				Streams:  1,
				Workload: perf.Workload{Seq: true, ReadPct: 0, IOSize: 512 << 10, QueueDepth: 128},
			})
			report(b, d.String()+"_GBps", res.Agg.Throughput.GBps())
		}
	}
}

// BenchmarkAblationRegistrationCache contrasts RDMA tail latency with and
// without the registration-cache misses (§5.4's mechanism isolated).
func BenchmarkAblationRegistrationCache(b *testing.B) {
	for i := 0; i < b.N; i++ {
		for _, misses := range []bool{true, false} {
			prm := model.RDMA56G()
			label := "with_misses"
			if !misses {
				prm.MemRegWarmOps = 0.001
				prm.MemRegFloorProb = 0
				label = "no_misses"
			}
			cfg := exp.Config{
				Kind:     exp.RDMA56,
				Streams:  4,
				RDMA:     &prm,
				Workload: perf.Workload{Seq: true, ReadPct: 70, IOSize: 128 << 10, QueueDepth: 4},
			}
			res := runMicro(b, cfg)
			report(b, label+"_p9999_us", float64(res.Agg.Latency.P9999())/1e3)
		}
	}
}

func itoa(n int) string {
	if n == 0 {
		return "0"
	}
	var buf [20]byte
	i := len(buf)
	for n > 0 {
		i--
		buf[i] = byte('0' + n%10)
		n /= 10
	}
	return string(buf[i:])
}

func volConfig(window int) (c vol.Config) {
	c.CoalesceBytes = window
	return
}

// BenchmarkAblationSHMEncryption measures the cost of the §6 hardening:
// the shared-memory channel enciphered with a per-tenant key.
func BenchmarkAblationSHMEncryption(b *testing.B) {
	for i := 0; i < b.N; i++ {
		for _, encrypted := range []bool{false, true} {
			e := sim.NewEngine(42)
			params := model.DefaultSHM()
			region, err := shm.NewRegion(e, 1, 512<<10, 32, params, shm.ModeLockFree, shm.ClaimRoundRobin)
			if err != nil {
				b.Fatal(err)
			}
			label := "plaintext"
			if encrypted {
				region.EnableEncryption(0xFEED, 1.5e9)
				label = "encrypted"
			}
			var done sim.Time
			e.Go("driver", func(p *sim.Proc) {
				for j := 0; j < 2000; j++ {
					s := region.Claim(p, shm.H2C)
					s.CopyIn(p, nil, 512<<10)
					s.CopyOut(p, nil, 512<<10)
					s.Release()
				}
				done = p.Now()
			})
			if err := e.Run(); err != nil {
				b.Fatal(err)
			}
			report(b, label+"_GBps", float64(2000*(512<<10))/1e9/done.Seconds())
		}
	}
}

// BenchmarkExtensionRDMAControlPath measures the paper's future-work
// variant (§5.5): oAF with its control plane over intra-node RDMA instead
// of loopback TCP, which attacks the control overhead dominating small
// I/O. Reported: 4K read latency for both control planes.
func BenchmarkExtensionRDMAControlPath(b *testing.B) {
	for i := 0; i < b.N; i++ {
		for _, kind := range []exp.Kind{exp.OAF, exp.OAFRDMACtl} {
			res := runMicro(b, exp.Config{
				Kind:     kind,
				Streams:  4,
				Workload: perf.Workload{Seq: true, ReadPct: 100, IOSize: 4096, QueueDepth: 16},
			})
			report(b, string(kind)+"_avg_us", res.Agg.BD.MeanTotal())
			report(b, string(kind)+"_GBps", res.Agg.Throughput.GBps())
		}
	}
}

// BenchmarkExtensionStreamScaling sweeps the tenant count on one host:
// oAF aggregate bandwidth scales with added streams until the SSDs bound
// it, while NVMe/TCP-25G saturates its shared wire almost immediately.
func BenchmarkExtensionStreamScaling(b *testing.B) {
	for i := 0; i < b.N; i++ {
		for _, streams := range []int{1, 2, 4, 8} {
			for _, kind := range []exp.Kind{exp.OAF, exp.TCP25G} {
				res := runMicro(b, exp.Config{
					Kind:     kind,
					Streams:  streams,
					Workload: perf.Workload{Seq: true, ReadPct: 100, IOSize: 128 << 10, QueueDepth: 64},
				})
				report(b, string(kind)+"_s"+itoa(streams)+"_GBps", res.Agg.Throughput.GBps())
			}
		}
	}
}
