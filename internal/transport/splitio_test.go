package transport

import (
	"bytes"
	"math/rand"
	"testing"

	"nvmeoaf/internal/nvme"
	"nvmeoaf/internal/sim"
)

// Regression: the merged status of a split I/O must be the status of the
// failing segment with the LOWEST offset, even when the caller's futures
// are not in offset order and the segments resolve out of order. The
// pre-fix merge took the first error in slice order, so a caller holding
// futures in completion (or any other) order reported a different error
// on different replays.
func TestAggregateResultsLowestOffsetErrorWins(t *testing.T) {
	e := sim.NewEngine(11)
	io := &IO{Offset: 0, Size: 3 * 4096, Data: make([]byte, 3*4096)}
	segs := []*IO{
		{Offset: 8192, Size: 4096},
		{Offset: 0, Size: 4096},
		{Offset: 4096, Size: 4096},
	}
	futs := make([]*sim.Future[*Result], len(segs))
	for i := range futs {
		futs[i] = sim.NewFuture[*Result](e)
	}
	agg := sim.NewFuture[*Result](e)
	AggregateResults(agg, io, segs, futs)
	e.Go("resolve", func(p *sim.Proc) {
		// The highest-offset segment fails first and sits first in the
		// slice; the lowest-offset failure arrives last.
		futs[0].Resolve(&Result{Status: nvme.StatusDataTransferErr})
		futs[1].Resolve(&Result{Status: nvme.StatusInvalidField})
		futs[2].Resolve(&Result{Status: nvme.StatusSuccess})
		r := agg.Wait(p)
		if r.Status != nvme.StatusInvalidField {
			t.Errorf("merged status = %v, want lowest-offset failure (InvalidField)", r.Status)
		}
	})
	if err := e.Run(); err != nil {
		t.Fatal(err)
	}
}

// Regression: a partially-failed split read must never surface Data. The
// caller's buffer holds a mix of read bytes and prior contents, so
// handing back a slice of it would present garbage as a successful read.
func TestAggregateResultsNoDataOnPartialFailure(t *testing.T) {
	e := sim.NewEngine(12)
	buf := bytes.Repeat([]byte{0xEE}, 2*4096)
	io := &IO{Offset: 0, Size: len(buf), Data: buf}
	segs := SplitAt(io, 4096)
	if len(segs) != 2 {
		t.Fatalf("split into %d segments, want 2", len(segs))
	}
	futs := []*sim.Future[*Result]{sim.NewFuture[*Result](e), sim.NewFuture[*Result](e)}
	agg := sim.NewFuture[*Result](e)
	AggregateResults(agg, io, segs, futs)
	e.Go("resolve", func(p *sim.Proc) {
		copy(segs[0].Data, bytes.Repeat([]byte{0x11}, 4096))
		futs[0].Resolve(&Result{Status: nvme.StatusSuccess, Data: segs[0].Data})
		futs[1].Resolve(&Result{Status: nvme.StatusTransientTransport})
		r := agg.Wait(p)
		if r.Status != nvme.StatusTransientTransport {
			t.Errorf("merged status = %v, want the failing segment's", r.Status)
		}
		if r.Data != nil {
			t.Error("partial failure returned Data; the buffer contents are unspecified")
		}
	})
	if err := e.Run(); err != nil {
		t.Fatal(err)
	}
}

// Property test: for random (offset, size, unit) combinations SplitAt
// produces contiguous, unit-aligned (except the ends) segments that
// sub-slice the caller's buffer so a per-segment read reassembles
// byte-for-byte, and SpanCount always equals len(SplitAt(...)).
func TestSplitAtProperties(t *testing.T) {
	rng := rand.New(rand.NewSource(7))
	for trial := 0; trial < 500; trial++ {
		unit := int64(512) << rng.Intn(8)  // 512B .. 64KiB
		offset := int64(rng.Intn(1 << 20)) // anywhere in 1 MiB
		size := 1 + rng.Intn(4*int(unit))  // up to 4 units
		io := &IO{Offset: offset, Size: size, Data: make([]byte, size)}
		segs := SplitAt(io, unit)

		if got := SpanCount(io, unit); got != len(segs) {
			t.Fatalf("trial %d: SpanCount=%d, len(SplitAt)=%d (off=%d size=%d unit=%d)",
				trial, got, len(segs), offset, size, unit)
		}

		next := io.Offset
		covered := 0
		for i, seg := range segs {
			if seg.Offset != next {
				t.Fatalf("trial %d: segment %d starts at %d, want contiguous %d", trial, i, seg.Offset, next)
			}
			if seg.Size <= 0 {
				t.Fatalf("trial %d: segment %d has size %d", trial, i, seg.Size)
			}
			if i > 0 && seg.Offset%unit != 0 {
				t.Fatalf("trial %d: interior segment %d starts unaligned at %d (unit %d)", trial, i, seg.Offset, unit)
			}
			end := seg.Offset + int64(seg.Size)
			if i < len(segs)-1 && end%unit != 0 {
				t.Fatalf("trial %d: interior segment %d ends unaligned at %d (unit %d)", trial, i, end, unit)
			}
			if (seg.Offset / unit) != (end-1)/unit {
				t.Fatalf("trial %d: segment %d crosses a unit boundary [%d, %d)", trial, i, seg.Offset, end)
			}
			next = end
			covered += seg.Size
		}
		if covered != io.Size {
			t.Fatalf("trial %d: segments cover %d bytes, want %d", trial, covered, io.Size)
		}

		// Simulate a per-segment read from a backing store: each segment's
		// Data must be a window into the caller's buffer at the right
		// position, so filling the segments reassembles the store range.
		store := make([]byte, int(offset)+size)
		for i := range store {
			store[i] = byte((int64(i) + offset + int64(trial)) % 251)
		}
		for _, seg := range segs {
			copy(seg.Data, store[seg.Offset:seg.Offset+int64(seg.Size)])
		}
		if !bytes.Equal(io.Data, store[offset:offset+int64(size)]) {
			t.Fatalf("trial %d: reassembled buffer differs from store (off=%d size=%d unit=%d)",
				trial, offset, size, unit)
		}
	}
}

// The single-segment fast path must hand back the caller's IO itself so
// nothing is copied, and degenerate shapes (admin, flush, zero size,
// zero unit) always count as one span.
func TestSplitAtDegenerateShapes(t *testing.T) {
	for _, io := range []*IO{
		{Admin: nvme.AdminKeepAlive},
		{Flush: true},
		{Offset: 4096, Size: 0},
		{Offset: 0, Size: 4096},
	} {
		if n := SpanCount(io, 4096); n != 1 {
			t.Errorf("SpanCount(%+v) = %d, want 1", io, n)
		}
		segs := SplitAt(io, 4096)
		if len(segs) != 1 || segs[0] != io {
			t.Errorf("SplitAt(%+v) did not forward the original IO", io)
		}
	}
	if n := SpanCount(&IO{Size: 1 << 20}, 0); n != 1 {
		t.Errorf("SpanCount with unit=0 = %d, want 1", n)
	}
}
