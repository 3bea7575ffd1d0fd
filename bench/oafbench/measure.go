package main

import (
	"fmt"
	"math"
	"runtime"
	"sort"
	"time"

	"nvmeoaf/internal/exp"
	"nvmeoaf/internal/stats"
)

// p9999MinSamples is the percentile-support rule: p99.99 is reported only
// when the window completed at least this many I/Os, which leaves ten
// samples beyond it.
const p9999MinSamples = 100_000

// simFacts is the virtual-time outcome of one run. With a fixed seed every
// field repeats bit for bit, run to run and commit to commit, unless the
// model changed, so two runs are compared with ==.
type simFacts struct {
	Ops, Bytes, Errors int64
	IOPS               float64
	// Interpolated percentiles in virtual microseconds (see quantile).
	P50, P99, P999, P9999 float64
	// EdgeP50..: the bucket edges stats.Histogram.Quantile reports, the
	// form every figure of the repository prints.
	EdgeP50, EdgeP99, EdgeP9999 float64
}

// hostCost is the wall-clock side of one run.
type hostCost struct {
	Wall           time.Duration
	Mallocs, Bytes uint64
}

// quantile estimates the q-quantile of h in the histogram's unit.
// Histogram.Quantile answers with the upper edge of a log-linear bucket
// (1.6 % wide), a step function that hides any move smaller than a bucket.
// This finds the run of ranks that share the step holding q and interpolates
// linearly from the next lower step, so a shift inside a bucket still shows.
// It uses only the histogram's public step function.
func quantile(h *stats.Histogram, q float64) float64 {
	n := h.Count()
	if n == 0 {
		return 0
	}
	edge := func(rank int64) int64 { return h.Quantile((float64(rank) + 0.5) / float64(n)) }
	rank := int64(q * float64(n))
	if rank >= n {
		rank = n - 1
	}
	cur := edge(rank)
	lo := int64(sort.Search(int(rank), func(i int) bool { return edge(int64(i)) >= cur }))
	hi := rank + 1 + int64(sort.Search(int(n-rank-1), func(i int) bool { return edge(rank+1+int64(i)) > cur }))
	prev := float64(h.Min())
	if lo > 0 {
		prev = float64(edge(lo - 1))
	}
	frac := (float64(rank-lo) + 0.5) / float64(hi-lo)
	return prev + (float64(cur)-prev)*frac
}

func factsOf(res *exp.Result) simFacts {
	a := res.Agg
	us := func(ns float64) float64 { return ns / 1e3 }
	f := simFacts{
		Ops: a.Throughput.Ops, Bytes: a.Throughput.Bytes, Errors: a.Errors,
		IOPS:    a.Throughput.IOPS(),
		P50:     us(quantile(a.Latency, 0.50)),
		P99:     us(quantile(a.Latency, 0.99)),
		P999:    us(quantile(a.Latency, 0.999)),
		EdgeP50: us(float64(a.Latency.P50())),
		EdgeP99: us(float64(a.Latency.P99())),
	}
	if a.Throughput.Ops >= p9999MinSamples {
		f.P9999 = us(quantile(a.Latency, 0.9999))
		f.EdgeP9999 = us(float64(a.Latency.P9999()))
	}
	return f
}

// checkAccounting is correctness gate (c): the per-stream results add up to
// the aggregate, and the bytes moved are the sizes requested.
func checkAccounting(cfg exp.Config, res *exp.Result) error {
	var ops, bytes int64
	for _, s := range res.PerStream {
		ops += s.Throughput.Ops
		bytes += s.Throughput.Bytes
	}
	a := res.Agg.Throughput
	if ops != a.Ops || bytes != a.Bytes {
		return fmt.Errorf("per-stream sums (%d ops, %d bytes) differ from the aggregate (%d ops, %d bytes)", ops, bytes, a.Ops, a.Bytes)
	}
	if want := a.Ops * int64(cfg.Workload.IOSize); a.Bytes != want {
		return fmt.Errorf("%d bytes completed, want %d ops x %d", a.Bytes, a.Ops, cfg.Workload.IOSize)
	}
	return nil
}

// runOnce executes one configuration under both clocks. keep receives the
// result before it is dropped: results hold whole device page stores, so none
// outlives its run.
func runOnce(cfg exp.Config, keep func(*exp.Result)) (simFacts, hostCost, error) {
	var m0, m1 runtime.MemStats
	runtime.GC()
	runtime.ReadMemStats(&m0)
	t0 := time.Now()
	res, err := exp.Run(cfg)
	wall := time.Since(t0)
	runtime.ReadMemStats(&m1)
	if err != nil {
		return simFacts{}, hostCost{}, err
	}
	if err := checkAccounting(cfg, res); err != nil {
		return simFacts{}, hostCost{}, err
	}
	if keep != nil {
		keep(res)
	}
	return factsOf(res), hostCost{Wall: wall, Mallocs: m1.Mallocs - m0.Mallocs, Bytes: m1.TotalAlloc - m0.TotalAlloc}, nil
}

// spread summarises repeated host measurements of one quantity. Rel is their
// run-to-run spread as a share of the median: the distance between the first
// and third quartile from four repeats up, as the benchmark's driver takes it
// across runs (Python's statistics.quantiles), the whole range below that.
type spread struct {
	Median, Min, Max, Rel float64
	N                     int
}

func summarize(xs []float64) spread {
	s := append([]float64(nil), xs...)
	sort.Float64s(s)
	n := len(s)
	// quartile i of 4, by the exclusive method.
	quartile := func(i int) float64 {
		j := min(max(i*(n+1)/4, 1), n-1)
		delta := float64(i*(n+1) - j*4)
		return (s[j-1]*(4-delta) + s[j]*delta) / 4
	}
	out := spread{Median: s[n/2], Min: s[0], Max: s[n-1], N: n}
	if n%2 == 0 {
		out.Median = (s[n/2-1] + s[n/2]) / 2
	}
	width := out.Max - out.Min
	if n >= 4 {
		width = quartile(3) - quartile(1)
	}
	if out.Median != 0 {
		out.Rel = width / math.Abs(out.Median)
	}
	return out
}

func pick(cs []hostCost, f func(hostCost) float64) spread {
	xs := make([]float64, len(cs))
	for i, c := range cs {
		xs[i] = f(c)
	}
	return summarize(xs)
}

func wallSeconds(c hostCost) float64 { return c.Wall.Seconds() }
func mallocs(c hostCost) float64     { return float64(c.Mallocs) }
func allocBytes(c hostCost) float64  { return float64(c.Bytes) }

// Set-up is measured at least setupMin and at most setupMax times, stopping
// early once setupBudget is spent: the cache workload's warm-up takes 0.6 s,
// while a 10 ms set-up needs many repeats for a steady median.
const (
	setupMin    = 3
	setupMax    = 25
	setupBudget = 2 * time.Second
	// timedMin full runs are always made, however short -seconds is.
	timedMin = 2
)

// measured is the untraced measurement of one workload.
type measured struct {
	Facts  simFacts
	Setup  []hostCost
	Timed  []hostCost
	Window time.Duration // measured virtual window
}

// measure runs the set-up-only repeats, then full runs until budget has
// elapsed, and enforces gate (b): every timed repeat reproduces the same
// virtual-time facts.
func measure(w workload, seed int64, quick bool, budget time.Duration, sp *spans, parent int) (*measured, error) {
	m := &measured{Window: w.config(seed, quick, false).Workload.Duration}

	id := sp.start(w.Name+"/setup", parent)
	for start := time.Now(); len(m.Setup) < setupMin || (len(m.Setup) < setupMax && time.Since(start) < setupBudget); {
		_, c, err := runOnce(w.config(seed, quick, true), nil)
		if err != nil {
			return nil, fmt.Errorf("%s set-up run: %w", w.Name, err)
		}
		m.Setup = append(m.Setup, c)
	}
	sp.end(id)

	id = sp.start(w.Name+"/window", parent)
	defer sp.end(id)
	for start := time.Now(); len(m.Timed) < timedMin || time.Since(start) < budget; {
		f, c, err := runOnce(w.config(seed, quick, false), nil)
		if err != nil {
			return nil, fmt.Errorf("%s timed run: %w", w.Name, err)
		}
		if f.Ops == 0 {
			return nil, fmt.Errorf("%s: the window completed no I/O", w.Name)
		}
		if len(m.Timed) == 0 {
			m.Facts = f
		} else if f != m.Facts {
			return nil, fmt.Errorf("%s: virtual-time results differ between repeats of one seed:\n  first %+v\n  now   %+v", w.Name, m.Facts, f)
		}
		m.Timed = append(m.Timed, c)
	}
	return m, nil
}
