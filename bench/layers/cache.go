package layers

import (
	"nvmeoaf/internal/bdev"
	"nvmeoaf/internal/cache"
	"nvmeoaf/internal/model"
	"nvmeoaf/internal/sim"
	"nvmeoaf/internal/ssd"
	"nvmeoaf/internal/telemetry"
)

// cacheHit4k: Cache.Submit of a 4 KiB read on a resident line — lookup, LRU
// touch, admission bookkeeping and an already-resolved future.
var cacheHit4k = Driver{Name: "cache.drv_hit4k", Allocs: true, Ops: 200_000, Prepare: func() func(int) {
	const lines = 64
	e := sim.NewEngine(1)
	backing := bdev.NewSimSSD(e, "drv", 1<<30, model.DefaultSSD(), false, 4096)
	c := cache.New(e, backing, cache.Config{Bytes: 16 << 20, Telemetry: telemetry.New()})
	// A stride of 7 lines visits all 64 without ever continuing a
	// sequential run, which the cache would classify as a scan and bypass.
	read := func(i int) *sim.Future[ssd.Result] {
		return c.Submit(&ssd.Request{Op: ssd.OpRead, Offset: int64(i*7%lines) * 4096, Size: 4096})
	}
	inProc(e, func(p *sim.Proc) { // first touch fills the lines
		for i := 0; i < lines; i++ {
			if r := read(i).Wait(p); r.Err != nil {
				panic(r.Err)
			}
		}
	})
	return func(n int) {
		for i := 0; i < n; i++ {
			if !read(i).Resolved() {
				panic("cache driver: read of a resident line missed")
			}
		}
	}
}}
