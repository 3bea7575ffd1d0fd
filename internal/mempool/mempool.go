// Package mempool implements DPDK-style fixed-element buffer pools: one
// contiguous arena carved into equal elements with O(1) get/put, double-
// and stale-free detection, and exhaustion accounting.
//
// The NVMe-oF target allocates its data buffers from such pools (the
// paper's Buffer Manager places buffers in the DPDK pool on the TCP path,
// §4.1); pool sizing at chunk granularity is the memory-utilization axis
// of the chunk-size experiment (Fig 9).
package mempool

import "fmt"

// Pool is a fixed-size-element allocator.
type Pool struct {
	name     string
	elemSize int
	arena    []byte
	free     []int32
	inUse    []bool
	gen      []uint32 // per element, advanced by every Free

	// Gets counts successful allocations; Exhausted counts failed ones.
	Gets, Puts, Exhausted int64
	peakInUse             int

	poison bool
}

// PoisonByte fills freed elements when poison-on-free is enabled. The
// value (0xDB, "dead buffer") makes stale reads of returned elements
// glaringly wrong instead of silently returning the previous payload.
const PoisonByte = 0xDB

// Buf is one element borrowed from a pool, held by value: Get allocates
// nothing. B is the element's backing slice; it must not be retained after
// Free. A Buf remembers the element's generation at Get, so freeing it
// twice, or through a copy kept after the element was freed and handed out
// again, panics instead of freeing the next borrower's buffer.
type Buf struct {
	B    []byte
	pool *Pool
	idx  int32
	gen  uint32
}

// New creates a pool of count elements of elemSize bytes each.
func New(name string, elemSize, count int) *Pool {
	if elemSize <= 0 || count <= 0 {
		panic(fmt.Sprintf("mempool %s: invalid geometry %dx%d", name, count, elemSize))
	}
	p := &Pool{
		name:     name,
		elemSize: elemSize,
		arena:    make([]byte, elemSize*count),
		free:     make([]int32, 0, count),
		inUse:    make([]bool, count),
		gen:      make([]uint32, count),
	}
	for i := count - 1; i >= 0; i-- {
		p.free = append(p.free, int32(i))
	}
	return p
}

// SetPoison enables or disables poison-on-free: freed elements are
// filled with PoisonByte so any party still reading (or about to reuse
// without rewriting) a returned element sees poison, not stale payload.
// Tests run transports with poison on to flush use-after-free bugs.
func (p *Pool) SetPoison(on bool) { p.poison = on }

// Poisoned reports whether poison-on-free is enabled.
func (p *Pool) Poisoned() bool { return p.poison }

// Name returns the pool name.
func (p *Pool) Name() string { return p.name }

// ElemSize returns the element size in bytes.
func (p *Pool) ElemSize() int { return p.elemSize }

// Cap returns the total number of elements.
func (p *Pool) Cap() int { return len(p.inUse) }

// Available returns the number of free elements.
func (p *Pool) Available() int { return len(p.free) }

// InUse returns the number of borrowed elements.
func (p *Pool) InUse() int { return p.Cap() - p.Available() }

// PeakInUse returns the high-water mark of borrowed elements.
func (p *Pool) PeakInUse() int { return p.peakInUse }

// FootprintBytes returns the arena size: the memory cost of this pool,
// reported by the chunk-size experiment.
func (p *Pool) FootprintBytes() int { return len(p.arena) }

// Get borrows an element; ok is false when the pool is exhausted.
func (p *Pool) Get() (Buf, bool) {
	if len(p.free) == 0 {
		p.Exhausted++
		return Buf{}, false
	}
	idx := p.free[len(p.free)-1]
	p.free = p.free[:len(p.free)-1]
	p.inUse[idx] = true
	p.Gets++
	if n := p.InUse(); n > p.peakInUse {
		p.peakInUse = n
	}
	start := int(idx) * p.elemSize
	return Buf{B: p.arena[start : start+p.elemSize : start+p.elemSize], pool: p, idx: idx, gen: p.gen[idx]}, true
}

// Free returns the element to its pool. Freeing twice, or through a stale
// copy of the handle, panics: that is a use-after-free bug in the
// transport.
func (b Buf) Free() {
	p := b.pool
	if p == nil {
		panic("mempool: Free of unpooled Buf")
	}
	if !p.inUse[b.idx] || p.gen[b.idx] != b.gen {
		panic(fmt.Sprintf("mempool %s: double or stale free of element %d", p.name, b.idx))
	}
	if p.poison {
		start := int(b.idx) * p.elemSize
		elem := p.arena[start : start+p.elemSize]
		for i := range elem {
			elem[i] = PoisonByte
		}
	}
	p.inUse[b.idx] = false
	p.gen[b.idx]++
	p.free = append(p.free, b.idx)
	p.Puts++
}

// Scatter copies src into the buffers at absolute payload offset off,
// treating them as one contiguous payload split into equal elements.
// Transports use it to land received bytes in pool elements (the DPDK
// receive path) rather than private heap buffers.
func Scatter(bufs []Buf, off int, src []byte) {
	elem := len(bufs[0].B)
	for len(src) > 0 {
		b := bufs[off/elem].B
		o := off % elem
		n := len(b) - o
		if n > len(src) {
			n = len(src)
		}
		copy(b[o:], src[:n])
		off += n
		src = src[n:]
	}
}

// Span returns the contiguous element slice covering [off, off+n), or
// nil when the range crosses an element boundary (callers then bounce
// through a scratch buffer and Scatter).
func Span(bufs []Buf, off, n int) []byte {
	elem := len(bufs[0].B)
	if off/elem != (off+n-1)/elem {
		return nil
	}
	o := off % elem
	return bufs[off/elem].B[o : o+n]
}

// Gather materializes size bytes of scattered payload into one
// contiguous buffer. Reading from the pool elements here — not from a
// private shadow copy — is what lets poison-on-free catch a transport
// that freed them too early.
func Gather(bufs []Buf, size int) []byte {
	elem := len(bufs[0].B)
	out := make([]byte, size)
	for off := 0; off < size; {
		b := bufs[off/elem].B
		o := off % elem
		n := len(b) - o
		if n > size-off {
			n = size - off
		}
		copy(out[off:], b[o:o+n])
		off += n
	}
	return out
}

// Stats is the exported view of a pool's accounting, consumed by the
// telemetry snapshots.
type Stats struct {
	Name           string `json:"name"`
	ElemSize       int    `json:"elem_size"`
	Cap            int    `json:"cap"`
	InUse          int    `json:"in_use"`
	PeakInUse      int    `json:"peak_in_use"`
	Gets           int64  `json:"gets"`
	Puts           int64  `json:"puts"`
	Exhausted      int64  `json:"exhausted"`
	FootprintBytes int    `json:"footprint_bytes"`
}

// Stats captures the pool's current accounting.
func (p *Pool) Stats() Stats {
	return Stats{
		Name:           p.name,
		ElemSize:       p.elemSize,
		Cap:            p.Cap(),
		InUse:          p.InUse(),
		PeakInUse:      p.peakInUse,
		Gets:           p.Gets,
		Puts:           p.Puts,
		Exhausted:      p.Exhausted,
		FootprintBytes: p.FootprintBytes(),
	}
}
