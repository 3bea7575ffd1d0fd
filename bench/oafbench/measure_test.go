package main

import (
	"math"
	"math/rand"
	"testing"

	"nvmeoaf/internal/exp"
	"nvmeoaf/internal/perf"
	"nvmeoaf/internal/stats"
)

// The interpolated quantile stays within one histogram bucket (1.6 %) of the
// exact one and, unlike the bucket edge, moves when the distribution shifts
// by less than a bucket.
func TestQuantileInterpolates(t *testing.T) {
	rng := rand.New(rand.NewSource(1))
	h, shifted := stats.NewHistogram(), stats.NewHistogram()
	samples := make([]int64, 50_000)
	for i := range samples {
		samples[i] = int64(100_000 * math.Exp(rng.NormFloat64()/4))
		h.Record(samples[i])
		shifted.Record(samples[i] + samples[i]/500) // +0.2 %
	}
	for _, q := range []float64{0.5, 0.99, 0.999} {
		got, exact := quantile(h, q), float64(stats.Exact(samples, q))
		if rel := math.Abs(got-exact) / exact; rel > 0.016 {
			t.Errorf("q=%g: interpolated %.0f vs exact %.0f, off by %.2f%%", q, got, exact, 100*rel)
		}
		if h.Quantile(q) != shifted.Quantile(q) {
			continue // the shift happened to cross a bucket edge
		}
		if quantile(shifted, q) <= got {
			t.Errorf("q=%g: a +0.2%% shift inside one bucket did not move the interpolated quantile", q)
		}
	}
	if got := quantile(stats.NewHistogram(), 0.5); got != 0 {
		t.Errorf("empty histogram: %v, want 0", got)
	}
	one := stats.NewHistogram()
	one.Record(1234)
	if got := quantile(one, 0.99); got != 1234 {
		t.Errorf("single sample: %v, want 1234", got)
	}
}

func resultWith(samples int) *exp.Result {
	h := stats.NewHistogram()
	for i := 0; i < samples; i++ {
		h.Record(int64(100_000 + i%5000))
	}
	res := &exp.Result{Agg: perf.Aggregate{Latency: h}}
	res.Agg.Throughput.Ops = int64(samples)
	res.Agg.Throughput.End = 1e9
	return res
}

// p99.99 needs ten samples beyond it: reported from 100 000 I/Os up, absent
// below.
func TestP9999SupportRule(t *testing.T) {
	if f := factsOf(resultWith(p9999MinSamples - 1)); f.P9999 != 0 || f.EdgeP9999 != 0 {
		t.Errorf("p99.99 reported from %d samples: %+v", p9999MinSamples-1, f)
	}
	f := factsOf(resultWith(p9999MinSamples))
	if f.P9999 == 0 || f.EdgeP9999 == 0 {
		t.Errorf("p99.99 missing at %d samples: %+v", p9999MinSamples, f)
	}
	if f.P50 == 0 || f.P99 < f.P50 || f.P999 < f.P99 || f.P9999 < f.P999 {
		t.Errorf("percentiles out of order: %+v", f)
	}
}

func TestSummarize(t *testing.T) {
	// Under four repeats the spread is the whole range over the median.
	if s := summarize([]float64{3, 1, 2}); s != (spread{Median: 2, Min: 1, Max: 3, Rel: 1, N: 3}) {
		t.Errorf("odd: %+v", s)
	}
	if s := summarize([]float64{4, 1, 2, 3}); s.Median != 2.5 {
		t.Errorf("even: %+v", s)
	}
	// From four up it is the quartile distance, which an outlier does not
	// widen: statistics.quantiles([10, 11, 12, 13, 14, 15, 16, 17, 18, 100],
	// n=4) is [11.75, 14.5, 17.25].
	s := summarize([]float64{10, 11, 12, 13, 14, 15, 16, 17, 18, 100})
	if want := (17.25 - 11.75) / 14.5; math.Abs(s.Rel-want) > 1e-12 {
		t.Errorf("quartile spread %v, want %v", s.Rel, want)
	}
}
