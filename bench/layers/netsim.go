package layers

import (
	"nvmeoaf/internal/model"
	"nvmeoaf/internal/netsim"
	"nvmeoaf/internal/sim"
)

// netsimMsg: Endpoint.Send / Recv of one small message over a tcp-25g link:
// sender stack charge, wire serialisation, delivery event, receiver wake-up.
var netsimMsg = Driver{Name: "netsim.drv_msg", Allocs: true, Ops: 20_000, Prepare: func() func(int) {
	e := sim.NewEngine(1)
	link := netsim.NewLoopLink(e, model.TCP25G())
	data := make([]byte, 72)
	return func(n int) {
		e.Go("rx", func(p *sim.Proc) {
			for i := 0; i < n; i++ {
				link.B.Recv(p)
			}
		})
		inProc(e, func(p *sim.Proc) {
			for i := 0; i < n; i++ {
				link.A.Send(p, &netsim.Message{Data: data})
			}
		})
	}
}}
