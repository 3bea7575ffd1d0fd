// Package vol implements the HDF5 Virtual-Object-Layer-style connector
// that routes dataset I/O over an NVMe-oF transport (the paper's
// HDF5/NVMe-oAF co-design, §5.7.1). It provides three data paths:
//
//   - a synchronous path for small or partial dataset writes (HDF5's
//     H5Dwrite is synchronous, so a naive connector issues one blocking
//     I/O per call);
//   - a pipelined direct path for large contiguous transfers, keeping a
//     fixed number of chunk I/Os in flight;
//   - an application-agnostic I/O coalescer (the optimization behind
//     Fig 17): small writes accumulate in per-extent write-behind buffers
//     that flush through the pipelined path, and sequential reads trigger
//     readahead.
package vol

import (
	"fmt"
	"sort"

	"nvmeoaf/internal/blockfs"
	"nvmeoaf/internal/sim"
)

// The pipelined direct path's geometry.
const (
	// transferSize is the chunk size of pipelined transfers.
	transferSize = 1 << 20
	// pipelineDepth is the number of outstanding chunk I/Os on the
	// direct path.
	pipelineDepth = 16
	// directThreshold routes transfers of at least this size down the
	// pipelined path; smaller ones are synchronous.
	directThreshold = 8 << 20
)

// Config tunes the connector.
type Config struct {
	// Coalesce enables the write-behind/readahead optimization.
	Coalesce bool
	// CoalesceBytes is the write-behind flush threshold (default 64 MiB:
	// large enough that each dataset extent accumulates a deep pipelined
	// flush even when eight datasets interleave).
	CoalesceBytes int
	// ReadAheadBytes is the prefetch window for sequential reads under
	// coalescing (default 8 MiB).
	ReadAheadBytes int
}

func (c Config) withDefaults() Config {
	if c.CoalesceBytes <= 0 {
		c.CoalesceBytes = 64 << 20
	}
	if c.ReadAheadBytes <= 0 {
		c.ReadAheadBytes = 8 << 20
	}
	return c
}

// extent is one pending write-behind region.
type extent struct {
	off  int64
	size int
	data []byte // nil when the payload is modeled
}

// Connector implements hdf5.Storage over a blockfs file.
type Connector struct {
	f   *blockfs.File
	cfg Config

	pending      []*extent
	pendingBytes int
	// prefetch windows already fetched by readahead, one per concurrent
	// sequential stream (interleaved multi-dataset reads each keep their
	// own window).
	windows []window

	// SyncOps counts synchronous small I/Os; DirectOps pipelined
	// transfers; CoalescedWrites writes absorbed into write-behind
	// buffers; Prefetches readahead transfers.
	SyncOps, DirectOps, CoalescedWrites, Prefetches int64
}

// New creates a connector over f.
func New(f *blockfs.File, cfg Config) *Connector {
	return &Connector{f: f, cfg: cfg.withDefaults()}
}

// WriteAt implements hdf5.Storage.
func (c *Connector) WriteAt(p *sim.Proc, off int64, data []byte, size int) error {
	if size <= 0 {
		return nil
	}
	if c.cfg.Coalesce {
		return c.coalesceWrite(p, off, data, size)
	}
	if size >= directThreshold {
		c.DirectOps++
		return c.f.Stream(p, true, off, data, size, transferSize, pipelineDepth)
	}
	c.SyncOps++
	return c.f.WriteAt(p, off, data, size)
}

// coalesceWrite merges the write into a pending extent, flushing when the
// write-behind budget fills. Buffering real bytes costs a memcpy-scale
// time already charged by the fabric's fill accounting; the dominant
// savings is turning synchronous small I/Os into deep pipelined ones.
func (c *Connector) coalesceWrite(p *sim.Proc, off int64, data []byte, size int) error {
	c.CoalescedWrites++
	merged := false
	for _, e := range c.pending {
		if e.off+int64(e.size) == off {
			// Sequential append to an existing extent.
			if data != nil {
				if e.data == nil {
					e.data = make([]byte, e.size)
				}
				e.data = append(e.data[:e.size], data[:size]...)
			} else if e.data != nil {
				e.data = append(e.data[:e.size], make([]byte, size)...)
			}
			e.size += size
			merged = true
			break
		}
	}
	if !merged {
		e := &extent{off: off, size: size}
		if data != nil {
			e.data = append([]byte(nil), data[:size]...)
		}
		c.pending = append(c.pending, e)
	}
	c.pendingBytes += size
	if c.pendingBytes >= c.cfg.CoalesceBytes {
		return c.flushPending(p)
	}
	return nil
}

// flushPending streams every pending extent through the pipelined path.
func (c *Connector) flushPending(p *sim.Proc) error {
	if len(c.pending) == 0 {
		return nil
	}
	extents := c.pending
	c.pending = nil
	c.pendingBytes = 0
	sort.Slice(extents, func(i, j int) bool { return extents[i].off < extents[j].off })
	for _, e := range extents {
		c.DirectOps++
		aligned := e.off%blockAlign == 0 && e.size%blockAlign == 0
		if aligned {
			if err := c.f.Stream(p, true, e.off, e.data, e.size, transferSize, pipelineDepth); err != nil {
				return err
			}
			continue
		}
		if err := c.f.WriteAt(p, e.off, e.data, e.size); err != nil {
			return err
		}
	}
	return nil
}

const blockAlign = 512

// ReadAt implements hdf5.Storage.
func (c *Connector) ReadAt(p *sim.Proc, off int64, buf []byte, size int) error {
	if size <= 0 {
		return nil
	}
	// Reads must observe pending writes.
	if err := c.flushPending(p); err != nil {
		return err
	}
	if c.cfg.Coalesce && buf == nil {
		return c.readAhead(p, off, size)
	}
	if size >= directThreshold {
		c.DirectOps++
		if off%blockAlign == 0 && size%blockAlign == 0 {
			return c.f.Stream(p, false, off, buf, size, transferSize, pipelineDepth)
		}
	}
	c.SyncOps++
	return c.f.ReadAt(p, off, buf, size)
}

// window is one prefetched range.
type window struct{ off, end int64 }

// maxWindows bounds the per-stream readahead state.
const maxWindows = 16

// readAhead serves modeled reads from the prefetch windows, fetching a
// fresh window with a pipelined transfer on a miss. One window exists per
// concurrent sequential stream, so interleaved multi-dataset reads do not
// thrash each other's readahead.
func (c *Connector) readAhead(p *sim.Proc, off int64, size int) error {
	end := off + int64(size)
	for _, w := range c.windows {
		if off >= w.off && end <= w.end {
			return nil // already prefetched
		}
	}
	// Fetch a full window starting at the requested offset (aligned).
	winStart := off / blockAlign * blockAlign
	winSize := int64(c.cfg.ReadAheadBytes)
	if winSize < int64(size) {
		winSize = (int64(size) + blockAlign - 1) / blockAlign * blockAlign
	}
	if winStart+winSize > c.f.Size {
		winSize = (c.f.Size - winStart) / blockAlign * blockAlign
	}
	c.Prefetches++
	c.DirectOps++
	if err := c.f.Stream(p, false, winStart, nil, int(winSize), transferSize, pipelineDepth); err != nil {
		return err
	}
	c.windows = append(c.windows, window{off: winStart, end: winStart + winSize})
	if len(c.windows) > maxWindows {
		c.windows = c.windows[1:]
	}
	if end > winStart+winSize {
		return fmt.Errorf("vol: read [%d,%d) exceeds prefetchable file range", off, end)
	}
	return nil
}

// Flush implements hdf5.Storage.
func (c *Connector) Flush(p *sim.Proc) error { return c.flushPending(p) }
