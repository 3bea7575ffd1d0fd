package cluster

import (
	"testing"
	"time"

	"nvmeoaf/internal/sim"
	"nvmeoaf/internal/transport"
)

func TestReviewSpareDiesAndRevivesDuplicatesSpareEntry(t *testing.T) {
	e := sim.NewEngine(99)
	// 2 seats + 2 spares.
	c, fakes := rig(t, e, 4, 1<<20, Options{
		Seats: 2, Replicas: 2, WriteQuorum: 1, ExtentSize: 4096,
		ProbeInterval: 50 * time.Microsecond, ProbeMisses: 2,
	})
	run(t, e, func(p *sim.Proc) {
		defer c.Close()
		if r := transport.Submit(p, c, &transport.IO{Write: true, Offset: 0, Size: 4096, Data: pattern(1, 4096)}).Wait(p); r.Status != 0 {
			t.Fatalf("write: %v", r.Status)
		}
		// Spare m2 dies and revives.
		fakes[2].down = true
		p.Sleep(2 * time.Millisecond)
		fakes[2].down = false
		p.Sleep(2 * time.Millisecond)
		t.Logf("spares after spare m2 died+revived: %v", c.spares)
		seen := map[int]int{}
		for _, idx := range c.spares {
			seen[idx]++
		}
		for idx, n := range seen {
			if n > 1 {
				t.Errorf("member %d appears %d times in spares list", idx, n)
			}
		}
		// Now both seated members die while spare m3 is also down:
		// vacancies should be filled by DISTINCT spares, not the same
		// member twice.
		fakes[3].down = true
		p.Sleep(2 * time.Millisecond)
		fakes[0].down = true
		fakes[1].down = true
		p.Sleep(3 * time.Millisecond)
		t.Logf("seats: %+v", c.seats)
		if c.seats[0].member >= 0 && c.seats[0].member == c.seats[1].member {
			t.Errorf("same member %d seated at both seats", c.seats[0].member)
		}
	})
}
