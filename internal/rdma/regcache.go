package rdma

// regPageSize is the pinning granularity: regions register in whole
// pages (page pinning + HCA translation-table entries are per-page).
const regPageSize = 4096

// regKey identifies one registered buffer region: the base pointer of a
// real caller/ring buffer, or a synthetic id for modeled regions (the
// connect-time buffer pool, legacy cold regions).
type regKey struct {
	ptr *byte
	id  uint64
}

// regEntry is one registered region on the LRU list (head = MRU).
type regEntry struct {
	key        regKey
	bytes      int64
	pinned     bool
	prev, next *regEntry
}

// regCache is the mechanistic MR (memory-registration) cache: an LRU of
// registered buffer regions bounded by a byte capacity. Pre-registered
// regions (buffer pool, ring arena) are pinned and never evict; other
// regions evict LRU-first under pressure, so misses happen for a reason
// — a region never seen, or one evicted by churn — instead of a
// decaying coin flip. The engine is cooperative, so no locking.
type regCache struct {
	capacity   int64
	used       int64
	entries    map[regKey]*regEntry
	head, tail *regEntry

	// Hits, Misses, Evictions, PreregBytes mirror the rdma.* telemetry
	// counters for direct inspection in tests.
	Hits, Misses, Evictions int64
	PreregBytes             int64
}

func newRegCache(capacity int64) *regCache {
	return &regCache{capacity: capacity, entries: map[regKey]*regEntry{}}
}

// alignRegion rounds a region size up to whole pages.
func alignRegion(bytes int64) int64 {
	if bytes <= 0 {
		return regPageSize
	}
	return (bytes + regPageSize - 1) &^ (regPageSize - 1)
}

// Preregister pins a region in the cache (connect-time pool and ring
// arena registration). Pinned regions count against capacity but are
// never evicted; registration cost is charged by the caller as part of
// connection setup, not the I/O path.
func (c *regCache) Preregister(key regKey, bytes int64) {
	if e, ok := c.entries[key]; ok {
		e.pinned = true
		c.moveToFront(e)
		return
	}
	e := &regEntry{key: key, bytes: alignRegion(bytes), pinned: true}
	c.insert(e)
	c.PreregBytes += e.bytes
}

// Touch looks a region up on the post path. A hit refreshes LRU order
// and costs nothing; a miss registers the region (the caller charges
// MemRegCost) and may evict unpinned LRU regions to fit. Returns whether
// it hit and how many regions were evicted by the insertion.
func (c *regCache) Touch(key regKey, bytes int64) (hit bool, evicted int) {
	if e, ok := c.entries[key]; ok {
		c.moveToFront(e)
		c.Hits++
		return true, 0
	}
	c.Misses++
	e := &regEntry{key: key, bytes: alignRegion(bytes)}
	c.insert(e)
	for c.used > c.capacity {
		victim := c.evictLRU(e)
		if victim == nil {
			break // everything left is pinned or in use: over-commit
		}
		evicted++
	}
	c.Evictions += int64(evicted)
	return false, evicted
}

// Invalidate drops an unpinned region (pool churn / fragmentation force
// a re-registration on next touch). Pinned regions are untouchable.
func (c *regCache) Invalidate(key regKey) {
	e, ok := c.entries[key]
	if !ok || e.pinned {
		return
	}
	c.remove(e)
}

// Len returns the number of registered regions.
func (c *regCache) Len() int { return len(c.entries) }

func (c *regCache) insert(e *regEntry) {
	c.entries[e.key] = e
	c.used += e.bytes
	e.next = c.head
	if c.head != nil {
		c.head.prev = e
	}
	c.head = e
	if c.tail == nil {
		c.tail = e
	}
}

func (c *regCache) remove(e *regEntry) {
	delete(c.entries, e.key)
	c.used -= e.bytes
	c.unlink(e)
}

func (c *regCache) unlink(e *regEntry) {
	if e.prev != nil {
		e.prev.next = e.next
	} else if c.head == e {
		c.head = e.next
	}
	if e.next != nil {
		e.next.prev = e.prev
	} else if c.tail == e {
		c.tail = e.prev
	}
	e.prev, e.next = nil, nil
}

// evictLRU removes the least-recently-used unpinned region other than
// keep; nil when none is evictable.
func (c *regCache) evictLRU(keep *regEntry) *regEntry {
	for e := c.tail; e != nil; e = e.prev {
		if e.pinned || e == keep {
			continue
		}
		c.remove(e)
		return e
	}
	return nil
}

func (c *regCache) moveToFront(e *regEntry) {
	if c.head == e {
		return
	}
	c.unlink(e)
	e.next = c.head
	if c.head != nil {
		c.head.prev = e
	}
	c.head = e
	if c.tail == nil {
		c.tail = e
	}
}
