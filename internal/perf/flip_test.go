package perf

import (
	"testing"
	"time"

	"nvmeoaf/internal/sim"
)

// flipWorkload is the canonical phase-flip pattern: 4K random read for
// the first half of the window, 128K sequential read for the second.
func flipWorkload() Workload {
	return Workload{
		ReadPct: 100, IOSize: 4096,
		QueueDepth: 16, Duration: 200 * time.Millisecond,
		FlipAt: 100 * time.Millisecond,
		FlipTo: &Phase{Seq: true, ReadPct: 100, IOSize: 128 << 10},
	}
}

// flipRun drives one flipped stream, named name, to completion.
func flipRun(t *testing.T, seed int64, name string, w Workload) *Result {
	t.Helper()
	e, connect := rig(t, seed)
	var res *Result
	e.Go("main", func(p *sim.Proc) {
		q := connect(p, w.QueueDepth)
		s := NewStream(e, name, q, w, nil)
		s.Start()
		res = s.Wait(p)
	})
	if err := e.Run(); err != nil {
		t.Fatal(err)
	}
	return res
}

func TestWorkloadFlipSwitchesPattern(t *testing.T) {
	res := flipRun(t, 11, "flip", flipWorkload())
	pf := res.PostFlip
	if pf == nil {
		t.Fatal("no post-flip sub-result")
	}
	if pf.Throughput.Ops == 0 || pf.Throughput.Ops >= res.Throughput.Ops {
		t.Fatalf("post-flip ops %d of %d total", pf.Throughput.Ops, res.Throughput.Ops)
	}
	// Phase two is pure 128K: the post-flip mean request size must sit
	// near 128K (a few in-flight 4K stragglers may land just after the
	// flip instant).
	mean := float64(pf.Throughput.Bytes) / float64(pf.Throughput.Ops)
	if mean < 100<<10 {
		t.Fatalf("post-flip mean request %.0f bytes, want ~128K", mean)
	}
	// Phase one dominates the op count (4K is much faster per op), so
	// the whole-run mean stays well below phase two's.
	whole := float64(res.Throughput.Bytes) / float64(res.Throughput.Ops)
	if whole >= mean {
		t.Fatalf("whole-run mean %.0f >= post-flip mean %.0f", whole, mean)
	}
	if pf.Throughput.Window() != 100*time.Millisecond {
		t.Fatalf("post-flip window %v, want 100ms", pf.Throughput.Window())
	}
	if pf.Latency.Count() != pf.Throughput.Ops {
		t.Fatalf("post-flip latency samples %d != ops %d", pf.Latency.Count(), pf.Throughput.Ops)
	}
}

func TestWorkloadFlipDeterministic(t *testing.T) {
	a := flipRun(t, 12, "det", flipWorkload())
	b := flipRun(t, 12, "det", flipWorkload())
	if a.Throughput.Ops != b.Throughput.Ops || a.Throughput.Bytes != b.Throughput.Bytes {
		t.Fatalf("totals diverge: %+v vs %+v", a.Throughput, b.Throughput)
	}
	if a.PostFlip.Throughput.Ops != b.PostFlip.Throughput.Ops ||
		a.PostFlip.Throughput.Bytes != b.PostFlip.Throughput.Bytes {
		t.Fatalf("post-flip diverges: %+v vs %+v", a.PostFlip.Throughput, b.PostFlip.Throughput)
	}
	if a.Latency.Mean() != b.Latency.Mean() {
		t.Fatalf("latency means diverge: %v vs %v", a.Latency.Mean(), b.Latency.Mean())
	}
}

func TestWorkloadFlipDifferentSeedsDiverge(t *testing.T) {
	// Sanity check that the determinism test has teeth: with a 70:30
	// mix, different seeds draw different read/write sequences.
	mixed := flipWorkload()
	mixed.ReadPct = 70
	a := flipRun(t, 13, "s13", mixed)
	b := flipRun(t, 14, "s14", mixed)
	if a.ReadLatency.Count() == b.ReadLatency.Count() &&
		a.WriteLatency.Count() == b.WriteLatency.Count() {
		t.Fatal("different seeds produced identical read/write draws")
	}
}

func TestWorkloadFlipBeforeWindowNoOps(t *testing.T) {
	// A flip that never fires (FlipAt beyond the run) leaves PostFlip nil.
	w := flipWorkload()
	w.FlipAt = time.Hour
	res := flipRun(t, 15, "late", w)
	if res.PostFlip != nil {
		t.Fatalf("flip beyond the run produced a post-flip result: %+v", res.PostFlip.Throughput)
	}
}

func TestMaxIOSizeCoversFlipPhase(t *testing.T) {
	w := flipWorkload()
	if got := w.MaxIOSize(); got != 128<<10 {
		t.Fatalf("MaxIOSize = %d, want 128K from the flip phase", got)
	}
	w.FlipTo.SizeMix = []SizeWeight{{Size: 1 << 20, Weight: 1}}
	if got := w.MaxIOSize(); got != 1<<20 {
		t.Fatalf("MaxIOSize = %d, want 1M from the flip-phase mix", got)
	}
	plain := Workload{IOSize: 8192}
	if got := plain.MaxIOSize(); got != 8192 {
		t.Fatalf("MaxIOSize = %d, want 8192", got)
	}
}
