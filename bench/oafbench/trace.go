package main

import (
	"bytes"
	"encoding/json"
	"fmt"
	"math"
	"os"
	"runtime"
	"runtime/pprof"
	"time"

	"nvmeoaf/bench/layers"
	"nvmeoaf/internal/exp"
)

// The traced pass attributes host cost to layers from outside the program:
// nothing under internal/ is edited (spans inside the program are a later
// issue). One set-up-only run and one full run execute under the CPU profiler
// and the heap profiler at once; what the full run cost beyond the set-up
// run, per measured I/O, is charged stack by stack (attribute.go). Timed
// metrics are never taken from these runs.

// memProfileRate is the heap-sampling period of the traced pass in bytes
// (the runtime's default is 512 KiB). At 64 KiB a window allocating ~1 GB
// yields ~15 000 samples: a layer owning 5 % of allocations is estimated to
// about 4 %, and the run slows by 2-6 % (16 KiB: 5-15 %). Rate 1 would be
// exact but slows the run ~24x, too slow for the cache workload's warm-up.
const memProfileRate = 64 << 10

// span is one benchmark-level interval: verify, a workload's set-up, window
// and traced runs, the drivers. Parent is the id of the enclosing span, -1
// for a root.
type span struct {
	ID      int    `json:"id"`
	Name    string `json:"name"`
	Parent  int    `json:"parent"`
	StartNs int64  `json:"start_ns"`
	EndNs   int64  `json:"end_ns"`
}

// spans records intervals in memory; they are written out with the trace
// when the benchmark ends.
type spans struct {
	t0   time.Time
	list []span
}

func newSpans() *spans { return &spans{t0: time.Now()} }

func (s *spans) start(name string, parent int) int {
	id := len(s.list)
	s.list = append(s.list, span{ID: id, Name: name, Parent: parent, StartNs: time.Since(s.t0).Nanoseconds()})
	return id
}

func (s *spans) end(id int) { s.list[id].EndNs = time.Since(s.t0).Nanoseconds() }

// layerCost is what the profilers charged to one layer or runtime bucket.
type layerCost struct {
	Samples      int64   `json:"samples"`
	CPUNs        int64   `json:"cpu_ns"`
	AllocObjects float64 `json:"alloc_objects"`
	AllocBytes   float64 `json:"alloc_bytes"`
}

type costs map[string]*layerCost

func (c costs) at(bucket string) *layerCost {
	lc := c[bucket]
	if lc == nil {
		lc = &layerCost{}
		c[bucket] = lc
	}
	return lc
}

// minus returns c - o per bucket, floored at zero: sampling noise can make a
// thin layer's set-up share exceed its full-run share.
func (c costs) minus(o costs) costs {
	out := costs{}
	for k, v := range c {
		d := *v
		if ov := o[k]; ov != nil {
			d.Samples = max(0, d.Samples-ov.Samples)
			d.CPUNs = max(0, d.CPUNs-ov.CPUNs)
			d.AllocObjects = math.Max(0, d.AllocObjects-ov.AllocObjects)
			d.AllocBytes = math.Max(0, d.AllocBytes-ov.AllocBytes)
		}
		out[k] = &d
	}
	return out
}

// heapAttributor snapshots the runtime's allocation profile by layer. It
// caches each stack's verdict: the same few thousand allocation sites recur
// in every snapshot.
type heapAttributor struct {
	verdict map[[32]uintptr]string
}

// snapshot returns cumulative allocated objects and bytes per bucket, scaled
// from the sampled counts the way pprof scales a heap profile. The runtime
// keys its profile buckets by stack and size, so every object of a record has
// the record's mean size and the scale is exact in expectation.
func (h *heapAttributor) snapshot() costs {
	runtime.GC() // publish allocations since the last cycle into the profile
	var recs []runtime.MemProfileRecord
	for n, ok := runtime.MemProfile(nil, true); !ok; {
		recs = make([]runtime.MemProfileRecord, n+64) // room for sites that appear meanwhile
		if n, ok = runtime.MemProfile(recs, true); ok {
			recs = recs[:n]
		}
	}
	out := costs{}
	rate := float64(runtime.MemProfileRate)
	for i := range recs {
		r := &recs[i]
		if r.AllocObjects == 0 {
			continue
		}
		bucket, ok := h.verdict[r.Stack0]
		if !ok {
			var stack []string
			frames := runtime.CallersFrames(r.Stack())
			for {
				f, more := frames.Next()
				stack = append(stack, f.Function)
				if !more {
					break
				}
			}
			bucket = attribute(stack)
			// Only collector and scheduler work is split out of CPU
			// time; an allocation is either a layer's or not.
			if bucket == bucketGC || bucket == bucketSched {
				bucket = bucketOther
			}
			h.verdict[r.Stack0] = bucket
		}
		scale := 1.0
		if rate > 1 {
			mean := float64(r.AllocBytes) / float64(r.AllocObjects)
			scale = 1 / (1 - math.Exp(-mean/rate))
		}
		lc := out.at(bucket)
		lc.AllocObjects += float64(r.AllocObjects) * scale
		lc.AllocBytes += float64(r.AllocBytes) * scale
	}
	return out
}

// profiled executes one run under both profilers and returns what they
// charged to each layer, with the run's wall time.
func (h *heapAttributor) profiled(cfg exp.Config, keep func(*exp.Result)) (costs, simFacts, hostCost, error) {
	before := h.snapshot()
	var cpu bytes.Buffer
	if err := pprof.StartCPUProfile(&cpu); err != nil {
		return nil, simFacts{}, hostCost{}, fmt.Errorf("cpu profile: %w", err)
	}
	facts, host, err := runOnce(cfg, keep)
	pprof.StopCPUProfile()
	if err != nil {
		return nil, simFacts{}, hostCost{}, err
	}
	out := h.snapshot().minus(before)

	samples, err := readProfile(&cpu)
	if err != nil {
		return nil, simFacts{}, hostCost{}, err
	}
	for _, s := range samples {
		if len(s.Values) < 2 {
			return nil, simFacts{}, hostCost{}, fmt.Errorf("cpu profile: sample with %d values, want samples and nanoseconds", len(s.Values))
		}
		lc := out.at(attribute(s.Stack))
		lc.Samples += s.Values[0]
		lc.CPUNs += s.Values[1]
	}
	return out, facts, host, nil
}

// traced is the outcome of the traced pass for one workload.
type traced struct {
	Layers   costs // full run minus set-up run
	Wall     time.Duration
	Counters map[string]float64
}

// tracePass runs the traced pass of w. want is the virtual-time outcome of
// the untraced runs: profiling may not change the simulation.
func tracePass(w workload, seed int64, quick bool, want simFacts, sp *spans, parent int) (*traced, error) {
	// Only the allocations between two snapshots are read, so switching the
	// rate for the pass alone leaves nothing sampled at one rate and scaled
	// by another.
	defer func(rate int) { runtime.MemProfileRate = rate }(runtime.MemProfileRate)
	runtime.MemProfileRate = memProfileRate
	h := &heapAttributor{verdict: map[[32]uintptr]string{}}

	id := sp.start(w.Name+"/traced-setup", parent)
	setup, _, _, err := h.profiled(w.config(seed, quick, true), nil)
	sp.end(id)
	if err != nil {
		return nil, fmt.Errorf("%s traced set-up run: %w", w.Name, err)
	}

	id = sp.start(w.Name+"/traced-window", parent)
	cfg := w.config(seed, quick, false)
	var counters map[string]float64
	full, facts, host, err := h.profiled(cfg, func(res *exp.Result) { counters = modelCounters(cfg, res) })
	sp.end(id)
	if err != nil {
		return nil, fmt.Errorf("%s traced run: %w", w.Name, err)
	}
	if facts != want {
		return nil, fmt.Errorf("%s: virtual-time results changed under the profilers:\n  untraced %+v\n  traced   %+v", w.Name, want, facts)
	}
	if facts.Ops >= p9999MinSamples {
		counters["perf.sim_lat_p9999_us"] = facts.P9999
	}
	return &traced{Layers: full.minus(setup), Wall: host.Wall, Counters: counters}, nil
}

// perLayerMetrics turns the traced pass into named per-layer values, per
// measured I/O. untracedWall (seconds per full run) and untracedAllocs (per
// I/O) are the untraced medians the pass accounts for itself against.
func (t *traced) perLayerMetrics(ios, untracedWall, untracedAllocs float64) map[string]float64 {
	out := map[string]float64{}
	var allocSum float64
	for _, l := range layers.Names {
		lc := t.Layers.at(l)
		out[l+".cpu_ns_per_io"] = float64(lc.CPUNs) / ios
		out[l+".allocs_per_io"] = lc.AllocObjects / ios
		allocSum += lc.AllocObjects
	}
	for _, b := range []string{bucketGC, bucketSched, bucketOther} {
		out[b+"_cpu_ns_per_io"] = float64(t.Layers.at(b).CPUNs) / ios
	}
	other := t.Layers.at(bucketOther).AllocObjects
	out[bucketOther+"_allocs_per_io"] = other / ios
	allocSum += other

	out["trace.cpu_overhead_frac"] = t.Wall.Seconds()/untracedWall - 1
	out["trace.allocs_unattributed_frac"] = (untracedAllocs - allocSum/ios) / untracedAllocs
	for k, v := range t.Counters {
		out[k] = v
	}
	return out
}

// traceFile is trace.json: the benchmark's own spans and, per workload, what
// the profilers charged to every layer.
type traceFile struct {
	Spans     []span           `json:"spans"`
	Workloads map[string]costs `json:"workloads"`
}

func writeTrace(path string, sp *spans, perWorkload map[string]costs) error {
	b, err := json.MarshalIndent(traceFile{Spans: sp.list, Workloads: perWorkload}, "", " ")
	if err != nil {
		return err
	}
	return os.WriteFile(path, append(b, '\n'), 0o644)
}
