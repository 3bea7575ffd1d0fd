package layers

import (
	"nvmeoaf/internal/model"
	"nvmeoaf/internal/shm"
	"nvmeoaf/internal/sim"
)

// shmSlot4k: Region.Claim, Slot.CopyIn of 4 KiB of real bytes, Slot.Release
// on the lock-free design.
var shmSlot4k = Driver{Name: "shm.drv_slot4k", Allocs: true, Ops: 20_000, Prepare: func() func(int) {
	e := sim.NewEngine(1)
	r, err := shm.NewRegion(e, 1, 4096, 64, model.DefaultSHM(), shm.ModeLockFree, shm.ClaimRoundRobin)
	if err != nil {
		panic(err)
	}
	payload := make([]byte, 4096)
	return func(n int) {
		inProc(e, func(p *sim.Proc) {
			for i := 0; i < n; i++ {
				s := r.Claim(p, shm.H2C)
				s.CopyIn(p, payload, len(payload))
				s.Release()
			}
		})
	}
}}
