// Package blockfs provides a byte-addressed file abstraction over one
// NVMe-oF namespace: alignment handling (read-modify-write for partial
// blocks), synchronous reads/writes, and pipelined streaming transfers
// that keep a configurable number of block I/Os outstanding.
//
// The HDF5 layer and the NFS server both sit on top of it.
package blockfs

import (
	"fmt"

	"nvmeoaf/internal/sim"
	"nvmeoaf/internal/transport"
)

// File exposes one namespace as a flat byte-addressable file.
type File struct {
	e *sim.Engine
	q transport.Queue
	// Size is the addressable capacity in bytes.
	Size int64

	// Ops counts issued block I/Os; RMWs counts read-modify-write cycles
	// caused by unaligned accesses.
	Ops, RMWs int64
}

// New wraps a transport queue as a file of the given capacity.
func New(e *sim.Engine, q transport.Queue, size int64) *File {
	return &File{e: e, q: q, Size: size}
}

const bs = transport.BlockSize

// span aligns [off, off+size) outward to block boundaries.
func span(off int64, size int) (alignedOff int64, alignedSize int) {
	start := off / bs * bs
	end := (off + int64(size) + bs - 1) / bs * bs
	return start, int(end - start)
}

// check validates a range.
func (f *File) check(off int64, size int) error {
	if off < 0 || size < 0 || off+int64(size) > f.Size {
		return fmt.Errorf("blockfs: range [%d,%d) outside file of %d bytes", off, off+int64(size), f.Size)
	}
	return nil
}

// WriteAt writes size bytes at off synchronously. data may be nil for a
// modeled payload. Unaligned edges trigger read-modify-write of the
// bordering blocks.
func (f *File) WriteAt(p *sim.Proc, off int64, data []byte, size int) error {
	if err := f.check(off, size); err != nil {
		return err
	}
	if size == 0 {
		return nil
	}
	aOff, aSize := span(off, size)
	if aOff == off && aSize == size {
		return f.doSync(p, true, off, data, size)
	}
	// Read-modify-write: fetch the aligned span, splice, write back.
	f.RMWs++
	var buf []byte
	if data != nil {
		buf = make([]byte, aSize)
		if err := f.doSync(p, false, aOff, buf, aSize); err != nil {
			return err
		}
		copy(buf[off-aOff:], data[:size])
	} else {
		if err := f.doSync(p, false, aOff, nil, aSize); err != nil {
			return err
		}
	}
	return f.doSync(p, true, aOff, buf, aSize)
}

// ReadAt reads size bytes at off synchronously into buf (nil for modeled
// payloads).
func (f *File) ReadAt(p *sim.Proc, off int64, buf []byte, size int) error {
	if err := f.check(off, size); err != nil {
		return err
	}
	if size == 0 {
		return nil
	}
	aOff, aSize := span(off, size)
	if aOff == off && aSize == size {
		return f.doSync(p, false, off, buf, size)
	}
	f.RMWs++
	var tmp []byte
	if buf != nil {
		tmp = make([]byte, aSize)
	}
	if err := f.doSync(p, false, aOff, tmp, aSize); err != nil {
		return err
	}
	if buf != nil {
		copy(buf[:size], tmp[off-aOff:])
	}
	return nil
}

// doSync issues one aligned I/O and waits for it.
func (f *File) doSync(p *sim.Proc, write bool, off int64, data []byte, size int) error {
	f.Ops++
	io := &transport.IO{Write: write, Offset: off, Size: size, NoFill: true}
	if data != nil {
		io.Data = data[:size]
	}
	res := transport.Submit(p, f.q, io).Wait(p)
	if err := res.Err(); err != nil {
		return fmt.Errorf("blockfs: %s at %d+%d: %w", opName(write), off, size, err)
	}
	if !write && data != nil && res.Data != nil {
		copy(data[:size], res.Data)
	}
	return nil
}

func opName(write bool) string {
	if write {
		return "write"
	}
	return "read"
}

// Stream issues a large aligned transfer as xfer-sized I/Os with up to
// depth outstanding — the pipelined data path the VOL uses for large
// dataset transfers. data may be nil (modeled payload).
func (f *File) Stream(p *sim.Proc, write bool, off int64, data []byte, size, xfer, depth int) error {
	if err := f.check(off, size); err != nil {
		return err
	}
	if xfer <= 0 {
		xfer = 1 << 20
	}
	if depth <= 0 {
		depth = 1
	}
	aOff, aSize := span(off, size)
	if aOff != off || aSize != size {
		return fmt.Errorf("blockfs: stream range [%d,%d) not block aligned", off, off+int64(size))
	}

	type done struct{ err error }
	completions := sim.NewQueue[done](f.e, 0)
	outstanding := 0
	var firstErr error

	issue := func(chunkOff int64, n int) {
		f.Ops++
		io := &transport.IO{Write: write, Offset: chunkOff, Size: n, NoFill: true}
		if data != nil {
			io.Data = data[chunkOff-off : chunkOff-off+int64(n)]
		}
		fut := transport.Submit(p, f.q, io)
		local := io
		fut.OnResolve(func(r *transport.Result) {
			if err := r.Err(); err != nil {
				completions.TryPut(done{err: err})
				return
			}
			if !write && data != nil && r.Data != nil {
				copy(local.Data, r.Data)
			}
			completions.TryPut(done{})
		})
		outstanding++
	}

	next := off
	end := off + int64(size)
	for next < end && outstanding < depth {
		n := xfer
		if int64(n) > end-next {
			n = int(end - next)
		}
		issue(next, n)
		next += int64(n)
	}
	for outstanding > 0 {
		d, _ := completions.Get(p)
		outstanding--
		if d.err != nil && firstErr == nil {
			firstErr = d.err
		}
		if next < end && firstErr == nil {
			n := xfer
			if int64(n) > end-next {
				n = int(end - next)
			}
			issue(next, n)
			next += int64(n)
		}
	}
	return firstErr
}
