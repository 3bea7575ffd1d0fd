// Package cache implements a target-side DRAM block cache in front of
// any bdev.Device, mirroring SPDK's OCF integration and the managed
// DRAM tier of NetCAS: a sharded, set-associative store with per-set
// LRU eviction, write-through and write-back modes, a background
// flusher driven by the simulation engine, and NetCAS-style adaptive
// admission that bypasses large sequential streams so scans cannot
// evict the hot set.
//
// The cache is a transparent bdev.Device wrapper: the target's
// namespaces submit the same ssd.Requests, hits resolve immediately
// (DRAM time is below the simulator's bdev-submit CPU charge), misses
// fill whole aligned line spans from the backing device, and OpFlush
// remains a durability barrier — it returns only after every dirty
// line has reached the backing device and the backing flush completed.
//
// Failure semantics: injected backing errors propagate to the caller
// and never populate the cache; a flush-path write failure or a target
// crash with unflushed dirty lines surfaces as a typed *DirtyLossError
// on the next barrier, never as silent loss.
package cache

import (
	"fmt"
	"sync/atomic"

	"nvmeoaf/internal/bdev"
	"nvmeoaf/internal/sim"
	"nvmeoaf/internal/ssd"
	"nvmeoaf/internal/telemetry"
)

// Mode selects the write policy.
type Mode int

const (
	// WriteThrough completes writes only after the backing device does;
	// present lines are updated in place, so reads still hit.
	WriteThrough Mode = iota
	// WriteBack completes line-aligned writes from DRAM and defers the
	// backing write to the flusher, bounded by MaxDirtyFrac.
	WriteBack
)

func (m Mode) String() string {
	if m == WriteBack {
		return "write-back"
	}
	return "write-through"
}

// ParseMode parses "write-back"/"wb" or "write-through"/"wt".
func ParseMode(s string) (Mode, error) {
	switch s {
	case "write-through", "wt", "":
		return WriteThrough, nil
	case "write-back", "wb":
		return WriteBack, nil
	}
	return 0, fmt.Errorf("cache: unknown mode %q", s)
}

// MarshalText and UnmarshalText let documents name a mode as String
// prints it (or as ParseMode's short forms).
func (m Mode) MarshalText() ([]byte, error) { return []byte(m.String()), nil }

func (m *Mode) UnmarshalText(b []byte) (err error) {
	*m, err = ParseMode(string(b))
	return err
}

// Config sizes and tunes one cache instance.
type Config struct {
	// Name labels the cache in stats (defaults to "cache-"+backing name).
	Name string
	// Bytes is the cache capacity (rounded down to whole lines).
	Bytes int64
	// Ways is the set associativity (default 8).
	Ways int
	// Shards spreads sets across independently indexed groups
	// (default 16, reduced for small caches).
	Shards int
	// Mode is the write policy (default WriteThrough).
	Mode Mode
	// MaxDirtyFrac bounds write-back dirt as a fraction of capacity;
	// beyond it writes degrade to write-through until the flusher
	// catches up (default 0.5).
	MaxDirtyFrac float64
	// BypassBytes: requests at least this large bypass the cache
	// (default 128 KiB; <0 disables size bypass).
	BypassBytes int
	// SeqBypassRun: after this many back-to-back sequential reads the
	// stream is classified as a scan and bypasses the cache while the
	// hit-rate EWMA shows an established hot set (default 8).
	SeqBypassRun int
	// Retain materializes line payloads so reads return real bytes;
	// must match the backing device's retention or reads through the
	// cache would diverge from reads around it.
	Retain bool
	// TenantDirtyFrac optionally partitions the write-back dirty budget
	// per tenant: a write attributed to a listed tenant degrades to
	// write-through once that tenant's dirty lines exceed its fraction
	// of capacity, even when the shared MaxDirtyFrac bound still has
	// room — one tenant's write burst cannot consume the whole absorb
	// budget. Tenants not listed (and unattributed writes) are bounded
	// only by the shared watermark.
	TenantDirtyFrac map[string]float64
	// Telemetry receives hit/miss/fill/evict counters and the
	// flush-latency histogram. Nil disables.
	Telemetry *telemetry.Sink
}

// DirtyLossError reports write-back data that never reached the backing
// device: a crash with unflushed dirty lines, or a backing write failure
// on the flush path. It is sticky until the next Flush barrier reports it.
type DirtyLossError struct {
	// Dev is the cache name.
	Dev string
	// Lines and Bytes count the lost dirty lines.
	Lines int
	Bytes int64
	// Cause is the backing error for flush-path failures (nil for crash).
	Cause error
}

func (e *DirtyLossError) Error() string {
	msg := fmt.Sprintf("cache %s: lost %d dirty lines (%d bytes) before they reached the backing device", e.Dev, e.Lines, e.Bytes)
	if e.Cause != nil {
		msg += ": " + e.Cause.Error()
	}
	return msg
}

// Unwrap exposes the backing error.
func (e *DirtyLossError) Unwrap() error { return e.Cause }

// line is one cache line. tag is the line number (-1 = invalid).
// tenant records who dirtied the line (retained across flushes so a
// racing re-dirty reattributes to the same tenant).
type line struct {
	tag     int64
	dirty   bool
	lastUse uint64
	tenant  string
	data    []byte
}

// EWMA constants for the adaptive-admission hit-rate tracker (the
// pollPolicy idiom from internal/core/adaptive.go, with the warm
// counter saturating at a small constant).
const (
	ewmaAlpha   = 0.05
	ewmaWarmSat = 1024
	ewmaWarmMin = 16
	// protectEWMA: sequential scans bypass only once the hit rate shows
	// a hot set worth protecting; a cold cache admits everything.
	protectEWMA = 0.2
)

// flushWindow bounds concurrently in-flight flusher writes.
const flushWindow = 16

// lineSize is the cache-line size in bytes.
const lineSize = 4096

// Cache is a DRAM block cache wrapping a backing bdev.Device.
// It implements bdev.Device.
type Cache struct {
	e       *sim.Engine
	backing bdev.Device
	cfg     Config
	tel     *telemetry.Sink

	lines  []line
	slab   []byte // one allocation backing all line payloads (Retain)
	shards int
	sets   int // sets per shard
	ways   int
	tick   uint64

	// Write-back state. The watermarks and the bypass threshold are
	// atomics: the tuning controller (or an operator goroutine) adjusts
	// them live via SetMaxDirtyFrac/SetBypassBytes.
	dirtyBytes int64
	// dirtyByTenant partitions dirtyBytes by the tenant that dirtied
	// each line (only maintained when TenantDirtyFrac is configured).
	dirtyByTenant map[string]int64
	capBytes      int64
	hiWater       atomic.Int64
	loWater       atomic.Int64
	bypassBytes   atomic.Int64
	kickQ         *sim.Queue[struct{}]
	flushing      bool
	// flushMu serializes flushBatch between the background flusher and
	// Flush barriers: batches share the scratch slabs, and a barrier must
	// not issue the backing flush while a daemon batch is in flight.
	flushMu     *sim.Semaphore
	flushCursor int             // round-robin dirty-scan position
	loss        *DirtyLossError // sticky until the next barrier reports it
	// flight tracks lines whose flusher write-back is in flight. The
	// backing device applies data at completion, so while a line is in
	// flight its cached copy — not the backing device — is authoritative:
	// overlapping write-throughs are ordered behind the batch (flightDone),
	// fills must not overwrite or evict the line, and bypass-read overlay
	// covers it like a dirty line.
	flight     map[int64]struct{}
	flightDone *sim.Future[struct{}] // resolves when the in-flight batch fully lands

	// Adaptive admission.
	hitEWMA float64
	warm    int
	seqNext int64
	seqRun  int

	// scratch slabs decouple in-flight flusher writes from concurrent
	// re-dirtying of the same lines (Retain only).
	scratch [][]byte

	// freeFills recycles miss-fill ops (request + bound completion).
	freeFills []*readFill

	stats Stats
}

// Stats is the exported cache accounting.
type Stats struct {
	Name     string `json:"name"`
	Bytes    int64  `json:"bytes"`
	LineSize int    `json:"line_size"`
	Mode     string `json:"mode"`

	Hits          int64 `json:"hits"`
	Misses        int64 `json:"misses"`
	Fills         int64 `json:"fills"`
	Evictions     int64 `json:"evictions"`
	Bypasses      int64 `json:"bypasses"`
	WriteBacks    int64 `json:"write_backs"`
	WriteThroughs int64 `json:"write_throughs"`
	Throttled     int64 `json:"throttled,omitempty"`
	DirtyBytes    int64 `json:"dirty_bytes"`
	FlushedBytes  int64 `json:"flushed_bytes,omitempty"`
	LostLines     int64 `json:"lost_lines,omitempty"`
	LostBytes     int64 `json:"lost_bytes,omitempty"`

	// HitRateEWMA is the adaptive-admission tracker's live hit rate.
	HitRateEWMA float64 `json:"hit_rate_ewma"`
}

// HitRate returns the all-time hit fraction in [0,1].
func (s Stats) HitRate() float64 {
	total := s.Hits + s.Misses
	if total == 0 {
		return 0
	}
	return float64(s.Hits) / float64(total)
}

// New wraps backing with a cache and starts its flusher daemon.
func New(e *sim.Engine, backing bdev.Device, cfg Config) *Cache {
	if cfg.Ways <= 0 {
		cfg.Ways = 8
	}
	if cfg.Shards <= 0 {
		cfg.Shards = 16
	}
	if cfg.MaxDirtyFrac <= 0 {
		cfg.MaxDirtyFrac = 0.5
	}
	if cfg.BypassBytes == 0 {
		cfg.BypassBytes = 128 << 10
	}
	if cfg.SeqBypassRun <= 0 {
		cfg.SeqBypassRun = 8
	}
	if cfg.Name == "" {
		cfg.Name = "cache-" + backing.Name()
	}
	total := int(cfg.Bytes / lineSize)
	if total < cfg.Ways {
		total = cfg.Ways
	}
	shards := cfg.Shards
	for shards > 1 && total/(shards*cfg.Ways) < 1 {
		shards /= 2
	}
	sets := total / (shards * cfg.Ways)
	if sets < 1 {
		sets = 1
	}
	// Round sets down to a power of two for mask indexing.
	for sets&(sets-1) != 0 {
		sets &^= sets & -sets
	}
	nLines := shards * sets * cfg.Ways

	c := &Cache{
		e:       e,
		backing: backing,
		cfg:     cfg,
		tel:     cfg.Telemetry,
		lines:   make([]line, nLines),
		shards:  shards,
		sets:    sets,
		ways:    cfg.Ways,
		kickQ:   sim.NewQueue[struct{}](e, 0),
		flushMu: sim.NewSemaphore(e, 1),
		flight:  make(map[int64]struct{}),
	}
	capBytes := int64(nLines) * lineSize
	c.capBytes = capBytes
	c.SetMaxDirtyFrac(cfg.MaxDirtyFrac)
	if len(cfg.TenantDirtyFrac) > 0 {
		c.dirtyByTenant = make(map[string]int64, len(cfg.TenantDirtyFrac))
	}
	c.bypassBytes.Store(int64(cfg.BypassBytes))
	for i := range c.lines {
		c.lines[i].tag = -1
	}
	if cfg.Retain {
		c.slab = make([]byte, capBytes)
		for i := range c.lines {
			c.lines[i].data = c.slab[int64(i)*lineSize : int64(i+1)*lineSize]
		}
		c.scratch = make([][]byte, flushWindow)
		for i := range c.scratch {
			c.scratch[i] = make([]byte, lineSize)
		}
	}
	c.stats = Stats{Name: cfg.Name, Bytes: capBytes, LineSize: lineSize, Mode: cfg.Mode.String()}
	e.GoDaemon("cache-flusher/"+cfg.Name, c.flusherLoop)
	return c
}

// Name implements bdev.Device.
func (c *Cache) Name() string { return c.cfg.Name }

// SetMaxDirtyFrac retunes the write-back dirty bound live: the high
// watermark becomes frac of capacity (at least one line) and the low
// watermark a quarter of that. Lowering it below the current dirt makes
// new write-back absorption throttle until the flusher catches up —
// no restart, no data movement beyond the usual flush path.
func (c *Cache) SetMaxDirtyFrac(frac float64) {
	if frac <= 0 {
		frac = 0.5
	} else if frac > 1 {
		frac = 1
	}
	hi := int64(frac * float64(c.capBytes))
	if hi < lineSize {
		hi = lineSize
	}
	c.hiWater.Store(hi)
	c.loWater.Store(hi / 4)
}

// MaxDirtyBytes returns the live high watermark in bytes.
func (c *Cache) MaxDirtyBytes() int64 { return c.hiWater.Load() }

// CapBytes returns the cache capacity in bytes (fixed at construction).
func (c *Cache) CapBytes() int64 { return c.capBytes }

// SetBypassBytes retunes the large-request admission threshold live;
// n <= 0 disables size-based bypass.
func (c *Cache) SetBypassBytes(n int) {
	if n < 0 {
		n = 0
	}
	c.bypassBytes.Store(int64(n))
}

// LiveBypassBytes returns the live admission threshold (0 = disabled).
func (c *Cache) LiveBypassBytes() int { return int(c.bypassBytes.Load()) }

// BlockSize implements bdev.Device.
func (c *Cache) BlockSize() int { return c.backing.BlockSize() }

// Blocks implements bdev.Device.
func (c *Cache) Blocks() int64 { return c.backing.Blocks() }

// Backing exposes the wrapped device.
func (c *Cache) Backing() bdev.Device { return c.backing }

// Stats returns a copy of the cache accounting.
func (c *Cache) Stats() Stats {
	s := c.stats
	s.DirtyBytes = c.dirtyBytes
	s.HitRateEWMA = c.hitEWMA
	return s
}

// mix spreads line numbers across shards and sets (splitmix64 finalizer).
func mix(v uint64) uint64 {
	v ^= v >> 30
	v *= 0xbf58476d1ce4e5b9
	v ^= v >> 27
	v *= 0x94d049bb133111eb
	v ^= v >> 31
	return v
}

// setBase returns the index of the first way of lineNo's set.
func (c *Cache) setBase(lineNo int64) int {
	h := mix(uint64(lineNo))
	shard := int(h) & (c.shards - 1)
	set := int(h>>16) & (c.sets - 1)
	return (shard*c.sets + set) * c.ways
}

// lookup finds lineNo's way index, or -1.
func (c *Cache) lookup(lineNo int64) int {
	base := c.setBase(lineNo)
	for i := base; i < base+c.ways; i++ {
		if c.lines[i].tag == lineNo {
			return i
		}
	}
	return -1
}

// victim picks a fill slot in lineNo's set: an invalid way, else the
// least-recently-used clean way. Dirty lines are never evicted by fills
// (they leave only through the flusher), and neither are lines with an
// in-flight write-back (the cache copy is still authoritative until it
// lands); -1 means no way in the set is evictable.
func (c *Cache) victim(lineNo int64) int {
	base := c.setBase(lineNo)
	best, bestUse := -1, ^uint64(0)
	for i := base; i < base+c.ways; i++ {
		ln := &c.lines[i]
		if ln.tag == -1 {
			return i
		}
		if !ln.dirty && !c.inFlight(ln.tag) && ln.lastUse < bestUse {
			best, bestUse = i, ln.lastUse
		}
	}
	return best
}

// inFlight reports whether lineNo has a flusher write-back in flight.
func (c *Cache) inFlight(lineNo int64) bool {
	_, ok := c.flight[lineNo]
	return ok
}

// span returns the line-aligned range [first,last] of lines covering
// [off, off+size).
func (c *Cache) span(off int64, size int) (first, last int64) {
	return off / lineSize, (off + int64(size) - 1) / lineSize
}

// observeRead feeds the admission EWMA (pollPolicy idiom, saturating
// warm counter).
func (c *Cache) observeRead(hit bool) {
	v := 0.0
	if hit {
		v = 1.0
	}
	if c.warm == 0 {
		c.hitEWMA = v
	} else {
		c.hitEWMA = (1-ewmaAlpha)*c.hitEWMA + ewmaAlpha*v
	}
	if c.warm < ewmaWarmSat {
		c.warm++
	}
}

// noteSeq updates the sequential-run detector and reports whether the
// request continues a run long enough to classify as a scan.
func (c *Cache) noteSeq(off int64, size int) bool {
	if off == c.seqNext {
		c.seqRun++
	} else {
		c.seqRun = 0
	}
	c.seqNext = off + int64(size)
	return c.seqRun >= c.cfg.SeqBypassRun
}

// bypassRead decides admission for a read: large requests always
// bypass; sequential scans bypass once the EWMA shows a hot set worth
// protecting (NetCAS-style adaptive admission).
func (c *Cache) bypassRead(off int64, size int) bool {
	seq := c.noteSeq(off, size)
	if bp := c.bypassBytes.Load(); bp > 0 && int64(size) >= bp {
		return true
	}
	return seq && c.warm >= ewmaWarmMin && c.hitEWMA >= protectEWMA
}

// tryReadHit serves [off,off+size) from resident lines, touching LRU
// state and accounting. dst receives the bytes when non-nil (Retain).
// It reports whether every covered line was resident. This path is
// allocation-free in modeled (non-Retain) operation.
func (c *Cache) tryReadHit(off int64, size int, dst []byte) bool {
	first, last := c.span(off, size)
	// Probe all lines first: a partial hit is a miss (the whole span
	// refills), and LRU/data must not be touched for misses.
	for ln := first; ln <= last; ln++ {
		if c.lookup(ln) < 0 {
			return false
		}
	}
	for ln := first; ln <= last; ln++ {
		i := c.lookup(ln)
		c.tick++
		c.lines[i].lastUse = c.tick
		if dst != nil {
			lo := ln * lineSize
			hi := lo + lineSize
			if lo < off {
				lo = off
			}
			if end := off + int64(size); hi > end {
				hi = end
			}
			copy(dst[lo-off:hi-off], c.lines[i].data[lo-ln*lineSize:hi-ln*lineSize])
		}
	}
	c.stats.Hits++
	c.tel.Inc(telemetry.CtrCacheHit)
	return true
}

// overlayDirty copies resident dirty-line bytes over buf (which holds
// backing data for [off,off+size)), so bypassed reads still observe
// unflushed writes (Retain only). Lines with an in-flight write-back are
// overlaid too: the backing read may have raced the write-back, so the
// cached copy is the authoritative one until it lands.
func (c *Cache) overlayDirty(off int64, size int, buf []byte) {
	if buf == nil {
		return
	}
	first, last := c.span(off, size)
	for ln := first; ln <= last; ln++ {
		i := c.lookup(ln)
		if i < 0 || (!c.lines[i].dirty && !c.inFlight(ln)) {
			continue
		}
		lo := ln * lineSize
		hi := lo + lineSize
		if lo < off {
			lo = off
		}
		if end := off + int64(size); hi > end {
			hi = end
		}
		copy(buf[lo-off:hi-off], c.lines[i].data[lo-ln*lineSize:hi-ln*lineSize])
	}
}

// install populates lines [first,last] from spanData (backing bytes for
// that aligned range; nil in modeled mode). Resident dirty lines keep
// their newer data. Sets whose ways are all dirty skip the fill.
func (c *Cache) install(first, last int64, spanOff int64, spanData []byte) {
	for ln := first; ln <= last; ln++ {
		i := c.lookup(ln)
		if i < 0 {
			i = c.victim(ln)
			if i < 0 {
				continue // every way dirty: fill skipped, flusher will drain
			}
			if c.lines[i].tag != -1 {
				c.stats.Evictions++
				c.tel.Inc(telemetry.CtrCacheEvict)
			}
			c.lines[i].tag = ln
			c.lines[i].tenant = ""
			c.lines[i].dirty = false
			c.stats.Fills++
			c.tel.Inc(telemetry.CtrCacheFill)
		} else if c.lines[i].dirty || c.inFlight(ln) {
			c.tick++
			c.lines[i].lastUse = c.tick
			// Resident dirty data is newer than the backing span; a line
			// with an in-flight write-back likewise — the span read may
			// have raced the write-back at the device.
			continue
		}
		c.tick++
		c.lines[i].lastUse = c.tick
		if spanData != nil {
			o := ln*lineSize - spanOff
			end := o + lineSize
			if end > int64(len(spanData)) {
				end = int64(len(spanData))
			}
			copy(c.lines[i].data, spanData[o:end])
		}
	}
}

// markDirty marks a resident line dirty, accounting the transition to
// the named tenant (empty keeps the line's previous attribution, which
// is what a flusher-raced re-dirty wants).
func (c *Cache) markDirty(i int, tenant string) {
	if !c.lines[i].dirty {
		c.lines[i].dirty = true
		c.dirtyBytes += lineSize
		if tenant != "" {
			c.lines[i].tenant = tenant
		}
		if t := c.lines[i].tenant; t != "" && c.dirtyByTenant != nil {
			c.dirtyByTenant[t] += lineSize
		}
		c.stats.DirtyBytes = c.dirtyBytes
		c.tel.Add(telemetry.CtrCacheDirtyBytes, lineSize)
	}
}

// cleanLine accounts one dirty line's transition back to clean.
func (c *Cache) cleanLine(i int) {
	c.lines[i].dirty = false
	c.dirtyBytes -= lineSize
	if t := c.lines[i].tenant; t != "" && c.dirtyByTenant != nil {
		c.dirtyByTenant[t] -= lineSize
	}
}

// tenantDirtyOver reports whether absorbing size more dirty bytes for
// the tenant would exceed its configured partition of the dirty budget.
func (c *Cache) tenantDirtyOver(tenant string, size int) bool {
	if tenant == "" || c.dirtyByTenant == nil {
		return false
	}
	frac, ok := c.cfg.TenantDirtyFrac[tenant]
	if !ok {
		return false
	}
	return float64(c.dirtyByTenant[tenant]+int64(size)) > frac*float64(c.capBytes)
}

// TenantDirty returns the named tenant's current dirty bytes.
func (c *Cache) TenantDirty(tenant string) int64 { return c.dirtyByTenant[tenant] }

// updateResident copies the overlap of a completed write into resident
// lines so subsequent hits observe it (Retain with materialized data).
func (c *Cache) updateResident(off int64, data []byte) {
	if data == nil {
		return
	}
	first, last := c.span(off, len(data))
	for ln := first; ln <= last; ln++ {
		i := c.lookup(ln)
		if i < 0 {
			continue
		}
		lo := ln * lineSize
		hi := lo + lineSize
		if lo < off {
			lo = off
		}
		if end := off + int64(len(data)); hi > end {
			hi = end
		}
		copy(c.lines[i].data[lo-ln*lineSize:hi-ln*lineSize], data[lo-off:hi-off])
		c.tick++
		c.lines[i].lastUse = c.tick
	}
}

// Submit implements bdev.Device.
func (c *Cache) Submit(req *ssd.Request) *sim.Future[ssd.Result] {
	switch req.Op {
	case ssd.OpRead:
		return c.submitRead(req)
	case ssd.OpWrite:
		return c.submitWrite(req)
	case ssd.OpFlush:
		return c.submitFlush(req)
	default:
		return c.backing.Submit(req)
	}
}

// inBounds reports whether the request fits the device; out-of-range
// requests forward to the backing device for its canonical error.
func (c *Cache) inBounds(req *ssd.Request) bool {
	capacity := c.backing.Blocks() * int64(c.backing.BlockSize())
	return req.Size > 0 && req.Offset >= 0 && req.Offset+int64(req.Size) <= capacity
}

// submitRead serves a read from resident lines or fills them from the
// backing device. A caller-owned destination in req.Data (Retain only)
// receives the bytes on a hit or a miss; a bypassed read hands it to the
// backing device with the rest of the request.
func (c *Cache) submitRead(req *ssd.Request) *sim.Future[ssd.Result] {
	if !c.inBounds(req) || (req.Data != nil && len(req.Data) != req.Size) {
		return c.backing.Submit(req)
	}
	if c.bypassRead(req.Offset, req.Size) {
		c.stats.Bypasses++
		c.tel.Inc(telemetry.CtrCacheBypass)
		inner := c.backing.Submit(req)
		if !c.cfg.Retain || c.dirtyBytes == 0 {
			return inner
		}
		// Unflushed write-back data must stay visible to bypassed reads.
		out := sim.NewFuture[ssd.Result](c.e)
		off, size := req.Offset, req.Size
		inner.OnResolve(func(r ssd.Result) {
			if r.Err == nil {
				c.overlayDirty(off, size, r.Data)
			}
			out.Resolve(r)
		})
		return out
	}

	fut := req.Arm(c.e)
	var dst []byte
	if c.cfg.Retain {
		dst = req.Data
		if dst == nil {
			dst = make([]byte, req.Size)
		}
	}
	if c.tryReadHit(req.Offset, req.Size, dst) {
		c.observeRead(true)
		fut.Resolve(ssd.Result{Data: dst})
		return fut
	}
	c.observeRead(false)
	c.stats.Misses++
	c.tel.Inc(telemetry.CtrCacheMiss)

	// Miss: fill the whole aligned span so partial-line requests leave
	// complete lines behind.
	first, last := c.span(req.Offset, req.Size)
	spanOff := first * lineSize
	spanEnd := (last + 1) * lineSize
	if capacity := c.backing.Blocks() * int64(c.backing.BlockSize()); spanEnd > capacity {
		spanEnd = capacity
	}
	var f *readFill
	if n := len(c.freeFills); n > 0 {
		f, c.freeFills = c.freeFills[n-1], c.freeFills[:n-1]
	} else {
		f = &readFill{c: c}
		f.done = f.complete
	}
	f.fut, f.first, f.last, f.off, f.size, f.dst = fut, first, last, req.Offset, req.Size, req.Data
	f.req = ssd.Request{Op: ssd.OpRead, Offset: spanOff, Size: int(spanEnd - spanOff)}
	c.backing.Submit(&f.req).OnResolve(f.done)
	return fut
}

// readFill is one in-flight miss fill: the aligned-span request handed to
// the backing device and what its completion needs. It is recycled with
// done bound once, so a miss allocates neither the request nor a closure
// (without that a cached run allocates more per read than an uncached
// one, which internal/exp gates).
type readFill struct {
	c                *Cache
	req              ssd.Request
	fut              *sim.Future[ssd.Result]
	first, last, off int64
	size             int
	dst              []byte // the caller's destination, nil for none
	done             func(ssd.Result)
}

func (f *readFill) complete(r ssd.Result) {
	c, fut, dst := f.c, f.fut, f.dst
	first, last, spanOff, off, size := f.first, f.last, f.req.Offset, f.off, f.size
	// Back on the freelist before fut resolves: a callback may submit the
	// next read, and the backing device is done with the request (its
	// future detached this callback before running it, so re-arming f.req
	// from here is safe).
	f.fut, f.dst = nil, nil
	c.freeFills = append(c.freeFills, f)
	if r.Err != nil {
		// Errors never populate the cache.
		fut.Resolve(ssd.Result{Err: r.Err})
		return
	}
	// Resident dirty lines are newer than the span just read; lay
	// them over the span before installing and slicing the reply.
	if r.Data != nil {
		c.overlayDirty(spanOff, len(r.Data), r.Data)
	}
	c.install(first, last, spanOff, r.Data)
	var data []byte
	if r.Data != nil {
		data = r.Data[off-spanOff : off-spanOff+int64(size)]
		if dst != nil {
			copy(dst, data)
			data = dst
		}
	}
	fut.Resolve(ssd.Result{Data: data})
}

func (c *Cache) submitWrite(req *ssd.Request) *sim.Future[ssd.Result] {
	if !c.inBounds(req) || (req.Data != nil && len(req.Data) != req.Size) {
		return c.backing.Submit(req)
	}
	c.noteSeq(req.Offset, req.Size)
	aligned := req.Offset%lineSize == 0 && int64(req.Size)%lineSize == 0
	bp := c.bypassBytes.Load()
	large := bp > 0 && int64(req.Size) >= bp
	// Retained caches cannot absorb modeled (nil-payload) writes: the
	// backing device ignores their bytes, so caching them would invent
	// data. They fall through to write-through, which is a no-op on
	// resident line contents — matching the backing semantics exactly.
	materializable := !c.cfg.Retain || req.Data != nil
	if c.cfg.Mode == WriteBack && aligned && !large && materializable {
		hi := c.hiWater.Load()
		if c.dirtyBytes+int64(req.Size) > hi || c.tenantDirtyOver(req.Tenant, req.Size) {
			c.stats.Throttled++
			c.tel.Inc(telemetry.CtrCacheThrottled)
			c.kick()
		} else if c.absorbWrite(req) {
			c.stats.WriteBacks++
			c.tel.Inc(telemetry.CtrCacheWriteBack)
			if c.dirtyBytes >= hi/2 {
				c.kick()
			}
			fut := req.Arm(c.e)
			fut.Resolve(ssd.Result{})
			return fut
		}
	}

	// Write-through (also the write-back fallback): the backing write
	// completes the command; resident lines are updated in place.
	c.stats.WriteThroughs++
	c.tel.Inc(telemetry.CtrCacheWriteThrough)
	return c.submitWriteThrough(req)
}

// submitWriteThrough issues the backing write for a write-through,
// ordering it behind any in-flight flusher write-back to the same lines:
// the backing device applies data at completion, so an unordered stale
// write-back could otherwise land after this newer write and leave the
// device stale behind a clean cache line.
func (c *Cache) submitWriteThrough(req *ssd.Request) *sim.Future[ssd.Result] {
	if c.flightDone != nil && c.overlapsFlight(req.Offset, req.Size) {
		out := sim.NewFuture[ssd.Result](c.e)
		c.flightDone.OnResolve(func(struct{}) {
			c.issueWriteThrough(req).OnResolve(out.Resolve)
		})
		return out
	}
	return c.issueWriteThrough(req)
}

// issueWriteThrough submits the backing write and, on success, folds the
// bytes into resident lines. Covered lines captured by a flush batch that
// started while this write was in flight are re-dirtied: that batch's
// data predates this write, so the line must be flushed again with its
// current bytes after the racing write-back lands.
func (c *Cache) issueWriteThrough(req *ssd.Request) *sim.Future[ssd.Result] {
	inner := c.backing.Submit(req)
	if !c.cfg.Retain || req.Data == nil {
		return inner
	}
	out := sim.NewFuture[ssd.Result](c.e)
	off, data := req.Offset, req.Data
	inner.OnResolve(func(r ssd.Result) {
		if r.Err == nil {
			c.updateResident(off, data)
			c.redirtyFlight(off, len(data))
		}
		out.Resolve(r)
	})
	return out
}

// overlapsFlight reports whether [off,off+size) covers a line with an
// in-flight flusher write-back.
func (c *Cache) overlapsFlight(off int64, size int) bool {
	if len(c.flight) == 0 {
		return false
	}
	first, last := c.span(off, size)
	for ln := first; ln <= last; ln++ {
		if c.inFlight(ln) {
			return true
		}
	}
	return false
}

// redirtyFlight re-dirties resident lines in [off,off+size) whose
// write-back is in flight, forcing a re-flush of their current bytes.
func (c *Cache) redirtyFlight(off int64, size int) {
	if len(c.flight) == 0 {
		return
	}
	first, last := c.span(off, size)
	dirtied := false
	for ln := first; ln <= last; ln++ {
		if !c.inFlight(ln) {
			continue
		}
		if i := c.lookup(ln); i >= 0 {
			c.markDirty(i, "")
			dirtied = true
		}
	}
	if dirtied {
		c.kick()
	}
}

// absorbWrite installs a line-aligned write as dirty lines, two-phase:
// it first checks every covered line is resident or has a clean victim,
// then commits. It reports false when infeasible (caller degrades to
// write-through). The pre-check is advisory only — when two lines hash
// to one set, committing the first can consume the last clean way — so
// the commit phase re-checks and bails rather than indexing out of range.
func (c *Cache) absorbWrite(req *ssd.Request) bool {
	first, last := c.span(req.Offset, req.Size)
	for ln := first; ln <= last; ln++ {
		if c.lookup(ln) < 0 && c.victim(ln) < 0 {
			return false
		}
	}
	for ln := first; ln <= last; ln++ {
		i := c.lookup(ln)
		if i < 0 {
			i = c.victim(ln)
			if i < 0 {
				// Two lines of this write hash to the same set and
				// committing an earlier one consumed the set's last clean
				// way. Degrade the whole write to write-through: lines
				// already dirtied hold exactly the bytes the write-through
				// persists, so nothing diverges.
				return false
			}
			if c.lines[i].tag != -1 {
				c.stats.Evictions++
				c.tel.Inc(telemetry.CtrCacheEvict)
			}
			c.lines[i].tag = ln
			c.lines[i].tenant = ""
			c.lines[i].dirty = false
			c.stats.Fills++
			c.tel.Inc(telemetry.CtrCacheFill)
		}
		c.tick++
		c.lines[i].lastUse = c.tick
		if req.Data != nil {
			o := ln*lineSize - req.Offset
			copy(c.lines[i].data, req.Data[o:o+lineSize])
		}
		c.markDirty(i, req.Tenant)
	}
	return true
}

// kick nudges the flusher daemon without blocking.
func (c *Cache) kick() {
	if !c.flushing {
		c.kickQ.TryPut(struct{}{})
	}
}

// flusherLoop is the background flusher: a purely event-driven daemon
// (no timers, so the engine still drains) that writes dirty lines back
// until dirt falls under the low watermark.
func (c *Cache) flusherLoop(p *sim.Proc) {
	for {
		if _, ok := c.kickQ.Get(p); !ok {
			return
		}
		for {
			if _, more := c.kickQ.TryGet(); !more {
				break
			}
		}
		c.flushing = true
		c.flushMu.Acquire(p)
		for c.dirtyBytes > c.loWater.Load() {
			if c.flushBatch(p) == 0 {
				break
			}
		}
		c.flushMu.Release()
		c.flushing = false
	}
}

// flushBatch writes back up to flushWindow dirty lines concurrently and
// waits for all of them; it returns the number of lines captured.
// Lines are marked clean at capture: a write landing mid-flush re-dirties
// the line and it is flushed again on a later pass.
func (c *Cache) flushBatch(p *sim.Proc) int {
	type capture struct {
		lineNo int64
		idx    int
		fut    *sim.Future[ssd.Result]
		start  sim.Time
	}
	var caps []capture
	for n := 0; n < len(c.lines) && len(caps) < flushWindow; n++ {
		i := (c.flushCursor + n) % len(c.lines)
		if !c.lines[i].dirty {
			continue
		}
		ln := c.lines[i].tag
		c.cleanLine(i)
		c.stats.DirtyBytes = c.dirtyBytes
		c.tel.Add(telemetry.CtrCacheDirtyBytes, -lineSize)
		var data []byte
		if c.cfg.Retain {
			data = c.scratch[len(caps)]
			copy(data, c.lines[i].data)
		}
		size := lineSize
		if end := c.backing.Blocks() * int64(c.backing.BlockSize()); ln*lineSize+lineSize > end {
			size = int(end - ln*lineSize)
			if data != nil {
				data = data[:size]
			}
		}
		if c.flightDone == nil {
			c.flightDone = sim.NewFuture[struct{}](c.e)
		}
		c.flight[ln] = struct{}{}
		fut := c.backing.Submit(&ssd.Request{Op: ssd.OpWrite, Offset: ln * lineSize, Size: size, Data: data})
		caps = append(caps, capture{lineNo: ln, idx: i, fut: fut, start: p.Now()})
		c.flushCursor = i + 1
	}
	for _, cp := range caps {
		res := cp.fut.Wait(p)
		delete(c.flight, cp.lineNo)
		c.tel.ObserveDuration(telemetry.HistCacheFlushLat, p.Now().Sub(cp.start))
		if res.Err != nil {
			if c.lines[cp.idx].tag == cp.lineNo && c.lines[cp.idx].dirty {
				// Re-dirtied with newer acked data while the failed
				// write-back was in flight: keep the line resident and
				// dirty so the flusher retries the newer bytes. Nothing
				// is durably lost — the retry carries this version too.
				continue
			}
			// The backing device refused the write-back and no newer
			// version exists: the line's data is lost to durability.
			// Record it (sticky, typed) and drop the line so reads stop
			// serving bytes the device never got.
			c.recordLoss(1, res.Err)
			if c.lines[cp.idx].tag == cp.lineNo {
				c.lines[cp.idx].tag = -1
			}
			continue
		}
		c.stats.FlushedBytes += lineSize
	}
	if done := c.flightDone; done != nil {
		c.flightDone = nil
		done.Resolve(struct{}{})
	}
	return len(caps)
}

// recordLoss accounts lost dirty lines and arms the sticky loss error.
func (c *Cache) recordLoss(lines int, cause error) {
	c.stats.LostLines += int64(lines)
	c.stats.LostBytes += int64(lines) * lineSize
	c.tel.Add(telemetry.CtrCacheDirtyLost, int64(lines))
	if c.loss == nil {
		c.loss = &DirtyLossError{Dev: c.cfg.Name, Cause: cause}
	}
	c.loss.Lines += lines
	c.loss.Bytes += int64(lines) * lineSize
}

// Flush is the durability barrier: it writes back every dirty line,
// issues a backing flush, and returns only when both are complete. A
// pending dirty-loss condition (crash, failed write-back) is returned
// as *DirtyLossError — reported once, then cleared.
func (c *Cache) Flush(p *sim.Proc) error {
	// Holding flushMu across the drain AND the backing flush guarantees no
	// daemon write-back is still in flight when the barrier completes.
	c.flushMu.Acquire(p)
	defer c.flushMu.Release()
	for c.dirtyBytes > 0 {
		if c.flushBatch(p) == 0 {
			break
		}
	}
	res := c.backing.Submit(&ssd.Request{Op: ssd.OpFlush}).Wait(p)
	if res.Err != nil {
		return res.Err
	}
	if c.loss != nil {
		err := c.loss
		c.loss = nil
		return err
	}
	return nil
}

// submitFlush runs the Flush barrier from a spawned process so Submit
// itself never blocks.
func (c *Cache) submitFlush(req *ssd.Request) *sim.Future[ssd.Result] {
	fut := req.Arm(c.e)
	c.e.Go("cache-flush/"+c.cfg.Name, func(p *sim.Proc) {
		fut.Resolve(ssd.Result{Err: c.Flush(p)})
	})
	return fut
}

// LoseDirty models target-process death with unflushed write-back data:
// every dirty line is dropped and recorded as lost, arming the sticky
// typed error the next Flush barrier reports. It returns the loss just
// recorded (nil when the cache was clean).
func (c *Cache) LoseDirty() *DirtyLossError {
	lost := 0
	for i := range c.lines {
		if !c.lines[i].dirty {
			continue
		}
		c.cleanLine(i)
		c.lines[i].tag = -1
		c.lines[i].tenant = ""
		lost++
	}
	c.stats.DirtyBytes = c.dirtyBytes
	c.tel.Add(telemetry.CtrCacheDirtyBytes, -int64(lost)*lineSize)
	if lost == 0 {
		return nil
	}
	c.recordLoss(lost, nil)
	return &DirtyLossError{Dev: c.cfg.Name, Lines: lost, Bytes: int64(lost) * lineSize}
}

// LostDirty reports the pending (unreported) dirty-loss condition, if
// any, without clearing it.
func (c *Cache) LostDirty() *DirtyLossError { return c.loss }
