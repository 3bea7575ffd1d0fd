// Package layers holds the benchmark's view of the repository's layers: their
// names, and one driver file per layer that calls the layer's public hot-path
// functions in a tight loop on an otherwise idle engine and is timed from
// outside. A driver measures one layer alone, independent of any workload, so
// a change to that layer shows here before it shows end to end. When a
// layer's API changes, its adapter file is the one place to re-point.
package layers

import (
	"runtime"
	"sort"
	"time"

	"nvmeoaf/internal/sim"
)

// Names are the repository's modules on the I/O path, in report order. The
// traced pass charges every profile sample to one of them or to a runtime.*
// bucket.
var Names = []string{
	"sim", "perf", "stats", "ring", "transport", "session", "tcp", "core",
	"rdma", "pdu", "netsim", "shm", "mempool", "target", "bdev", "cache",
	"ssd", "cluster", "qos", "telemetry",
}

// Driver exercises one hot-path operation of one layer.
type Driver struct {
	// Name is "<layer>.drv_<operation>"; the metrics are Name+"_ns" and,
	// when Allocs is set, Name+"_allocs".
	Name string
	// Allocs reports heap allocations per operation as well as time.
	Allocs bool
	// Ops is the operation count of one timed batch, sized so that a batch
	// takes tens of milliseconds.
	Ops int
	// Prepare builds the fixture and returns a function that performs n
	// operations. It is called once; the returned function several times.
	Prepare func() (run func(n int))
}

// Drivers lists every layer driver in report order.
var Drivers = []Driver{
	simEvent, simSleep, simSpawn, simQueue,
	pduCodec4k, netsimMsg, ssdRead4k, cacheHit4k, shmSlot4k, ringCycle,
	mempoolCycle, qosTake, telemetryObserve, statsRecord,
}

// batches is the number of timed batches per driver; the time reported is
// their median.
const batches = 5

// Cost is a driver's result per operation.
type Cost struct {
	Ns, Allocs float64
}

// Measure runs d: one warm-up batch, then timed batches. div shortens the
// batches for smoke runs (1 = full length).
func Measure(d Driver, div int) Cost {
	n := d.Ops / div
	if n < 1 {
		n = 1
	}
	run := d.Prepare()
	run(n)

	var m0, m1 runtime.MemStats
	ns := make([]float64, batches)
	runtime.GC()
	runtime.ReadMemStats(&m0)
	for i := range ns {
		t0 := time.Now()
		run(n)
		ns[i] = float64(time.Since(t0).Nanoseconds()) / float64(n)
	}
	runtime.ReadMemStats(&m1)
	sort.Float64s(ns)
	return Cost{
		Ns:     ns[batches/2],
		Allocs: float64(m1.Mallocs-m0.Mallocs) / float64(batches*n),
	}
}

// mustRun drains the engine; a driver's fixture cannot deadlock or panic
// unless the layer is broken, which the benchmark must not hide.
func mustRun(e *sim.Engine) {
	if err := e.Run(); err != nil {
		panic(err)
	}
}

// inProc runs fn as one simulation process and drains the engine.
func inProc(e *sim.Engine, fn func(p *sim.Proc)) {
	e.Go("driver", fn)
	mustRun(e)
}
