package exp

import (
	"testing"
	"time"

	"nvmeoaf/internal/perf"
)

// quick runs a short measurement for shape tests.
func quick(t *testing.T, cfg Config) *Result {
	t.Helper()
	if cfg.Workload.Duration == 0 {
		cfg.Workload.Duration = 300 * time.Millisecond
	}
	if cfg.Workload.Warmup == 0 {
		cfg.Workload.Warmup = 50 * time.Millisecond
	}
	res, err := Run(cfg)
	if err != nil {
		t.Fatalf("%s: %v", cfg.Kind, err)
	}
	return res
}

func seqRead(size, qd int) perf.Workload {
	return perf.Workload{Seq: true, ReadPct: 100, IOSize: size, QueueDepth: qd}
}

func seqWrite(size, qd int) perf.Workload {
	return perf.Workload{Seq: true, ReadPct: 0, IOSize: size, QueueDepth: qd}
}

func TestShapeFig2ReadBandwidthOrdering(t *testing.T) {
	// Fig 2(a): 128KB seq read, 4 streams: 10G < 25G < 100G < RDMA.
	var got []float64
	for _, k := range []Kind{TCP10G, TCP25G, TCP100G, RDMA56} {
		res := quick(t, Config{Kind: k, Streams: 4, Workload: seqRead(128<<10, 128), Seed: 1})
		gbps := res.Agg.Throughput.GBps()
		t.Logf("%-10s read 128K x4: %.2f GB/s, avg %.0fus", k, gbps, res.Agg.BD.MeanTotal())
		got = append(got, gbps)
	}
	for i := 1; i < len(got); i++ {
		if got[i] <= got[i-1] {
			t.Fatalf("ordering violated at %d: %v", i, got)
		}
	}
}

func TestShapeFig11OAFBeatsAll(t *testing.T) {
	// Fig 11(a): oAF 128KB read beats TCP-10G by ~7x and RDMA by >1.3x.
	oaf := quick(t, Config{Kind: OAF, Streams: 4, Workload: seqRead(128<<10, 128), Seed: 1})
	tcp10 := quick(t, Config{Kind: TCP10G, Streams: 4, Workload: seqRead(128<<10, 128), Seed: 1})
	rdma := quick(t, Config{Kind: RDMA56, Streams: 4, Workload: seqRead(128<<10, 128), Seed: 1})
	t.Logf("oaf %.2f GB/s  tcp10 %.2f GB/s  rdma %.2f GB/s",
		oaf.Agg.Throughput.GBps(), tcp10.Agg.Throughput.GBps(), rdma.Agg.Throughput.GBps())
	ratio10 := oaf.Agg.Throughput.GBps() / tcp10.Agg.Throughput.GBps()
	ratioR := oaf.Agg.Throughput.GBps() / rdma.Agg.Throughput.GBps()
	if ratio10 < 4 || ratio10 > 12 {
		t.Fatalf("oaf/tcp10 ratio %.2f, want ~7x", ratio10)
	}
	if ratioR < 1.2 {
		t.Fatalf("oaf/rdma ratio %.2f, want >1.2", ratioR)
	}
	if oaf.SHMBytes == 0 {
		t.Fatal("oaf run moved no payload through shared memory")
	}
}

func TestShapeWriteBandwidth(t *testing.T) {
	if testing.Short() {
		t.Skip("slow sweep; run without -short for the full shape check")
	}
	for _, k := range []Kind{TCP10G, TCP100G, RDMA56, OAF} {
		res := quick(t, Config{Kind: k, Streams: 4, Workload: seqWrite(128<<10, 128), Seed: 2})
		t.Logf("%-10s write 128K x4: %.2f GB/s avg %.0fus (io %.0f comm %.0f other %.0f)",
			k, res.Agg.Throughput.GBps(), res.Agg.BD.MeanTotal(),
			res.Agg.BD.MeanIO(), res.Agg.BD.MeanComm(), res.Agg.BD.MeanOther())
		if res.Agg.Errors > 0 {
			t.Fatalf("%s: %d errors", k, res.Agg.Errors)
		}
	}
}

func TestShape4KLatency(t *testing.T) {
	if testing.Short() {
		t.Skip("slow sweep; run without -short for the full shape check")
	}
	for _, k := range []Kind{TCP10G, TCP25G, TCP100G, RDMA56, OAF} {
		res := quick(t, Config{Kind: k, Streams: 4, Workload: seqRead(4096, 128), Seed: 3})
		t.Logf("%-10s read 4K x4: %.2f GB/s avg %.0fus (io %.0f comm %.0f other %.0f)",
			k, res.Agg.Throughput.GBps(), res.Agg.BD.MeanTotal(),
			res.Agg.BD.MeanIO(), res.Agg.BD.MeanComm(), res.Agg.BD.MeanOther())
	}
}

func TestUnknownFabricRejected(t *testing.T) {
	if _, err := Run(Config{Kind: Kind("bogus-fabric"), Workload: seqRead(4096, 4)}); err == nil {
		t.Fatal("unknown fabric accepted")
	}
}
