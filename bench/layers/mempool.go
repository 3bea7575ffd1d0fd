package layers

import "nvmeoaf/internal/mempool"

// mempoolCycle: Pool.Get + Buf.Free of one data buffer.
var mempoolCycle = Driver{Name: "mempool.drv_cycle", Ops: 500_000, Prepare: func() func(int) {
	pool := mempool.New("drv", 4096, 64)
	return func(n int) {
		for i := 0; i < n; i++ {
			b, ok := pool.Get()
			if !ok {
				panic("mempool driver: pool exhausted")
			}
			b.Free()
		}
	}
}}
