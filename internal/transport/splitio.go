package transport

import (
	"nvmeoaf/internal/nvme"
	"nvmeoaf/internal/sim"
)

// SpanCount reports how many unit-sized, unit-aligned segments io spans.
// Admin, flush, and zero-size commands always count as one (they carry no
// LBA range to cut).
func SpanCount(io *IO, unit int64) int {
	if io.Admin != 0 || io.Flush || io.Size <= 0 || unit <= 0 {
		return 1
	}
	first := io.Offset / unit
	last := (io.Offset + int64(io.Size) - 1) / unit
	return int(last-first) + 1
}

// SplitAt cuts io at unit-aligned boundaries into per-segment IOs. Data
// (when real) is sub-sliced so segments read into / write from the
// caller's buffer in place. An io contained in one unit is returned as a
// single-element slice holding io itself (no copy), so the caller can
// forward it whole.
func SplitAt(io *IO, unit int64) []*IO {
	n := SpanCount(io, unit)
	if n == 1 {
		return []*IO{io}
	}
	segs := make([]*IO, 0, n)
	off := io.Offset
	end := io.Offset + int64(io.Size)
	for off < end {
		segEnd := (off/unit + 1) * unit
		if segEnd > end {
			segEnd = end
		}
		seg := &IO{
			Write:     io.Write,
			NSID:      io.NSID,
			Offset:    off,
			Size:      int(segEnd - off),
			NoFill:    io.NoFill,
			Tenant:    io.Tenant,
			QoSExempt: io.QoSExempt,
		}
		if io.Data != nil {
			seg.Data = io.Data[off-io.Offset : segEnd-io.Offset]
		}
		segs = append(segs, seg)
		off = segEnd
	}
	return segs
}

// AggregateResults resolves out (the caller's future for the whole io,
// with the result in io) once every segment future of the split io
// completes. segs[i] is the segment whose completion futs[i] carries (a
// nil segs means futs are already in ascending offset order, as SplitAt
// emits them). Timing reflects the slowest segment.
//
// Status contract: on any failure the merged status is the status of the
// FAILING SEGMENT WITH THE LOWEST OFFSET, regardless of the order the
// futures were created or resolved in, so a multi-error split reports
// the same error deterministically on every replay.
//
// Buffer-contents contract on mixed success/failure: split reads land in
// sub-slices of the caller's buffer in place, so after a partial failure
// the buffer holds an unspecified mix of freshly-read bytes and prior
// contents. Result.Data is nil unless every segment succeeded — callers
// must treat the buffer as garbage whenever Status != StatusSuccess.
func AggregateResults(out *sim.Future[*Result], io *IO, segs []*IO, futs []*sim.Future[*Result]) {
	remaining := len(futs)
	for _, f := range futs {
		f.OnResolve(func(*Result) {
			remaining--
			if remaining > 0 {
				return
			}
			merged := Result{Status: nvme.StatusSuccess}
			failAt := int64(-1)
			for i, sf := range futs {
				r, _ := sf.Value()
				if r.Status != nvme.StatusSuccess {
					at := int64(i)
					if segs != nil {
						at = segs[i].Offset
					}
					if failAt < 0 || at < failAt {
						failAt = at
						merged.Status = r.Status
					}
				}
				if r.Latency > merged.Latency {
					merged.Latency = r.Latency
				}
				if r.IOTime > merged.IOTime {
					merged.IOTime = r.IOTime
				}
				if r.CommTime > merged.CommTime {
					merged.CommTime = r.CommTime
				}
			}
			if other := merged.Latency - merged.IOTime - merged.CommTime; other > 0 {
				merged.OtherTime = other
			}
			if !io.Write && io.Data != nil && merged.Status == nvme.StatusSuccess {
				merged.Data = io.Data[:io.Size]
			}
			io.Complete(out, merged)
		})
	}
}
