package layers

import "nvmeoaf/internal/telemetry"

// telemetryObserve: Sink.Inc + Sink.Observe, the pair an I/O completion
// records.
var telemetryObserve = Driver{Name: "telemetry.drv_observe", Ops: 2_000_000, Prepare: func() func(int) {
	s := telemetry.New()
	return func(n int) {
		for i := 0; i < n; i++ {
			s.Inc(telemetry.CtrCompletions)
			s.Observe(telemetry.HistReadLatency, int64(100_000+i%4096))
		}
	}
}}
