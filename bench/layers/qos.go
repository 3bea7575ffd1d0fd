package layers

import (
	"nvmeoaf/internal/qos"
	"nvmeoaf/internal/telemetry"
)

// qosTake: Bucket.TryTake of 4 KiB on a bucket provisioned far above the
// load, so every call refills, debits and admits.
var qosTake = Driver{Name: "qos.drv_take", Ops: 1_000_000, Prepare: func() func(int) {
	reg := qos.NewRegistry()
	if err := reg.Add(qos.Spec{Name: "t0", RateBps: 100 << 30}); err != nil {
		panic(err)
	}
	b := qos.NewShaper("drv", reg, telemetry.New()).Bucket("t0", 0)
	now := int64(0)
	return func(n int) {
		for i := 0; i < n; i++ {
			now += 1000
			if !b.TryTake(now, 4096) {
				panic("qos driver: throttled")
			}
		}
	}
}}
