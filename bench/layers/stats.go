package layers

import "nvmeoaf/internal/stats"

// statsRecord: Histogram.Record of one latency sample.
var statsRecord = Driver{Name: "stats.drv_record", Ops: 2_000_000, Prepare: func() func(int) {
	h := stats.NewHistogram()
	return func(n int) {
		for i := 0; i < n; i++ {
			h.Record(int64(100_000 + i%4096))
		}
	}
}}
