package layers

import (
	"nvmeoaf/internal/ring"
	"nvmeoaf/internal/sim"
	"nvmeoaf/internal/telemetry"
	"nvmeoaf/internal/transport"
)

// inlineQueue is a ring-native queue that completes every command inside
// SubmitInto, so the driver measures the ring and nothing beneath it.
type inlineQueue struct{ res transport.Result }

func (q *inlineQueue) Submit(p *sim.Proc, io *transport.IO) *sim.Future[*transport.Result] {
	fut := sim.NewFuture[*transport.Result](p.Engine())
	fut.Resolve(&q.res)
	return fut
}

func (q *inlineQueue) SubmitInto(p *sim.Proc, io *transport.IO, fut *sim.Future[*transport.Result]) {
	fut.Resolve(&q.res)
}

func (q *inlineQueue) RingDoorbell(*sim.Proc) {}
func (q *inlineQueue) Close()                 {}

// ringCycle: Claim -> Push -> Submit -> Reap -> Release in trains of 16, the
// cycle the repository's TestRingHotPathZeroAlloc pins at zero allocations.
// One operation is one command.
var ringCycle = Driver{Name: "ring.drv_cycle", Allocs: true, Ops: 200_000, Prepare: func() func(int) {
	const depth = 16
	e := sim.NewEngine(1)
	r := ring.New(e, &inlineQueue{}, ring.Config{SQSize: depth, BufSize: 4096, Telemetry: telemetry.New()})
	return func(n int) {
		inProc(e, func(p *sim.Proc) {
			var cq [depth]ring.CQE
			for done := 0; done < n; done += depth {
				for i := 0; i < depth; i++ {
					buf, ok := r.Claim()
					if !ok || !r.Push(ring.SQE{Write: i%2 == 0, Offset: int64(i) * 4096, Size: 4096, Buf: buf}) {
						panic("ring driver: claim or push refused")
					}
				}
				if r.Submit(p) != depth || r.Reap(p, cq[:], depth) != depth {
					panic("ring driver: short submit or reap")
				}
				for i := range cq {
					r.Release(cq[i].Buf)
				}
			}
		})
	}
}}
