package layers

import (
	"nvmeoaf/internal/model"
	"nvmeoaf/internal/sim"
	"nvmeoaf/internal/ssd"
)

// ssdRead4k: Device.Submit of 4 KiB reads kept at queue depth 32 — queueing,
// channel service and completion of the device model.
var ssdRead4k = Driver{Name: "ssd.drv_read4k", Allocs: true, Ops: 20_000, Prepare: func() func(int) {
	const qd = 32
	e := sim.NewEngine(1)
	dev := ssd.New(e, "drv", 1<<30, model.DefaultSSD(), false)
	return func(n int) {
		inProc(e, func(p *sim.Proc) {
			var inflight [qd]*sim.Future[ssd.Result]
			for i := 0; i < n; i++ {
				if f := inflight[i%qd]; f != nil {
					if r := f.Wait(p); r.Err != nil {
						panic(r.Err)
					}
				}
				inflight[i%qd] = dev.Submit(&ssd.Request{Op: ssd.OpRead, Offset: int64(i%4096) * 4096, Size: 4096})
			}
			for _, f := range inflight {
				if f != nil {
					f.Wait(p)
				}
			}
		})
	}
}}
