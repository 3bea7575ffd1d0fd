package perf

import (
	"math/rand"
	"sort"
	"testing"
	"time"

	"nvmeoaf/internal/sim"
)

// topShare draws from the generator and returns the fraction of draws
// landing on the hottest 1% of items.
func topShare(t *testing.T, theta float64) float64 {
	t.Helper()
	const n = 1 << 16
	const draws = 200_000
	z := newZipf(n, theta)
	rng := rand.New(rand.NewSource(1))
	counts := make(map[int64]int, n)
	for i := 0; i < draws; i++ {
		v := z.next(rng)
		if v < 0 || v >= n {
			t.Fatalf("draw %d out of range [0,%d)", v, int64(n))
		}
		counts[v]++
	}
	top := make([]int, 0, len(counts))
	for _, c := range counts {
		top = append(top, c)
	}
	sort.Sort(sort.Reverse(sort.IntSlice(top)))
	share := 0
	for i := 0; i < n/100 && i < len(top); i++ {
		share += top[i]
	}
	return float64(share) / draws
}

// TestZipfSkewConcentratesOnHotSet checks the Gray-transform generator
// against the property the cache experiments depend on: at YCSB's
// standard theta 0.99 a small fraction of items absorbs most draws,
// while low theta approaches uniform (where the top 1% would get ~1%).
func TestZipfSkewConcentratesOnHotSet(t *testing.T) {
	skewed := topShare(t, 0.99)
	flat := topShare(t, 0.1)
	t.Logf("top-1%% share: theta=0.99 %.2f, theta=0.1 %.2f", skewed, flat)
	if skewed < 0.35 {
		t.Errorf("theta 0.99: top 1%% of items got %.2f of draws, want >= 0.35", skewed)
	}
	if flat > 0.10 {
		t.Errorf("theta 0.1: top 1%% of items got %.2f of draws, want near-uniform <= 0.10", flat)
	}
	if skewed <= flat {
		t.Error("higher theta did not increase concentration")
	}
}

// TestZipfThetaClampAndTinySpan pins the edge cases: theta >= 1 (the
// Gray transform needs theta < 1) clamps instead of diverging, and a
// one-item span always draws item 0.
func TestZipfThetaClampAndTinySpan(t *testing.T) {
	rng := rand.New(rand.NewSource(2))
	z := newZipf(1024, 1.5)
	for i := 0; i < 1000; i++ {
		if v := z.next(rng); v < 0 || v >= 1024 {
			t.Fatalf("clamped-theta draw %d out of range", v)
		}
	}
	one := newZipf(1, 0.99)
	for i := 0; i < 10; i++ {
		if v := one.next(rng); v != 0 {
			t.Fatalf("single-item generator drew %d", v)
		}
	}
}

// TestZipfRankMappingIsPermutation pins the rank→item mapping as a true
// bijection over [0, n): the old hash-mod-n scramble could merge two
// Zipf ranks onto one item (distorting the hot-set distribution) and
// leave other items unreachable.
func TestZipfRankMappingIsPermutation(t *testing.T) {
	for _, n := range []int64{1, 2, 3, 7, 100, 1000, 1 << 10, 16381} {
		z := newZipf(n, 0.99)
		seen := make([]bool, n)
		for rank := int64(0); rank < n; rank++ {
			v := z.permute(rank)
			if v < 0 || v >= n {
				t.Fatalf("n=%d: permute(%d) = %d out of range", n, rank, v)
			}
			if seen[v] {
				t.Fatalf("n=%d: two ranks collide on item %d", n, v)
			}
			seen[v] = true
		}
	}
	z := newZipf(1<<16, 0.99)
	if got := testing.AllocsPerRun(100, func() { z.permute(12345) }); got != 0 {
		t.Errorf("permute allocates %.1f/op, want 0", got)
	}
}

// TestZipfStreamOffsetsAlignedAndBounded mirrors nextIO's offset
// computation: draws scaled by IOSize must stay aligned and inside the
// span, and identical seeds must reproduce identical sequences (the
// simulator's determinism contract).
func TestZipfStreamOffsetsAlignedAndBounded(t *testing.T) {
	w := Workload{IOSize: 4096, Span: 1 << 20, Zipf: 0.99}
	gen := func(seed int64) []int64 {
		z := newZipf(w.Span/int64(w.IOSize), w.Zipf)
		rng := rand.New(rand.NewSource(seed))
		offs := make([]int64, 512)
		for i := range offs {
			off := z.next(rng) * int64(w.IOSize)
			if off%int64(w.IOSize) != 0 {
				t.Fatalf("offset %d unaligned", off)
			}
			if off < 0 || off+int64(w.IOSize) > w.Span {
				t.Fatalf("offset %d outside span", off)
			}
			offs[i] = off
		}
		return offs
	}
	a, b := gen(7), gen(7)
	for i := range a {
		if a[i] != b[i] {
			t.Fatalf("draw %d differs across identical seeds: %d vs %d", i, a[i], b[i])
		}
	}
}

// TestZipfWorkloadEndToEnd runs a short Zipfian stream through the perf
// harness against a live queue: it must complete without errors and
// report a sane op count (smoke for the Workload.Zipf wiring).
func TestZipfWorkloadEndToEnd(t *testing.T) {
	e, connect := rig(t, 3)
	var s *Stream
	e.Go("main", func(p *sim.Proc) {
		q := connect(p, 8)
		s = NewStream(e, "zipf-smoke", q, Workload{
			IOSize: 4096, QueueDepth: 8, ReadPct: 100,
			Zipf: 0.99, Span: 16 << 20, Duration: 2 * time.Millisecond,
		}, nil)
		s.Start()
	})
	if err := e.Run(); err != nil {
		t.Fatal(err)
	}
	res := s.Result()
	if res.Errors != 0 {
		t.Fatalf("zipf stream errored: %d", res.Errors)
	}
	if res.Throughput.Ops == 0 {
		t.Fatal("zipf stream completed no ops")
	}
}
