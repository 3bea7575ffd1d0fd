package core

import (
	"testing"
	"time"

	"nvmeoaf/internal/model"
	"nvmeoaf/internal/session"
	"nvmeoaf/internal/sim"
	"nvmeoaf/internal/transport"
)

func TestSelectChunkSize(t *testing.T) {
	cases := []struct {
		link model.LinkParams
		want int
	}{
		{model.TCP10G(), 256 << 10},
		{model.TCP25G(), 512 << 10},
		{model.TCP100G(), 1 << 20},
		{model.Loopback(), 1 << 20},
	}
	for _, tc := range cases {
		if got := SelectChunkSize(tc.link); got != tc.want {
			t.Errorf("%s: chunk %d, want %d", tc.link.Name, got, tc.want)
		}
	}
}

func TestPollPolicySwitchesWithWorkload(t *testing.T) {
	var pol pollPolicy
	// Cold start: conservative.
	if pol.budget() != pollBudgetMixed {
		t.Fatalf("cold budget %v", pol.budget())
	}
	// Pure writes: long budget.
	for i := 0; i < 200; i++ {
		pol.observe(true)
	}
	if pol.budget() != pollBudgetWrite {
		t.Fatalf("write budget %v", pol.budget())
	}
	// Flip to pure reads: short budget after the EWMA adapts.
	for i := 0; i < 200; i++ {
		pol.observe(false)
	}
	if pol.budget() != pollBudgetRead {
		t.Fatalf("read budget %v", pol.budget())
	}
	// Balanced mix: middle budget.
	for i := 0; i < 400; i++ {
		pol.observe(i%2 == 0)
	}
	if pol.budget() != pollBudgetMixed {
		t.Fatalf("mixed budget %v", pol.budget())
	}
}

// TestPollPolicyWarmCounterSaturates pins the observe() warm guard: the
// counter must stop at pollWarmSat instead of counting every command
// forever, and — the actual regression risk — the EWMA must keep
// adapting normally long after saturation. A long-lived connection that
// flips from a write-heavy phase to reads after billions of commands
// still has to converge to the read budget.
func TestPollPolicyWarmCounterSaturates(t *testing.T) {
	var pol pollPolicy
	// Drive far past the saturation point with pure writes.
	for i := 0; i < 4*pollWarmSat; i++ {
		pol.observe(true)
	}
	if pol.warm != pollWarmSat {
		t.Fatalf("warm counter %d, want saturation at %d", pol.warm, pollWarmSat)
	}
	if pol.budget() != pollBudgetWrite {
		t.Fatalf("saturated write budget %v", pol.budget())
	}
	// Post-saturation the EWMA must still carry all adaptation state:
	// a phase change to pure reads converges exactly as it does when
	// the counter is small (alpha 0.05 crosses the 0.4 threshold in
	// under 20 samples from 1.0).
	for i := 0; i < 200; i++ {
		pol.observe(false)
	}
	if pol.budget() != pollBudgetRead {
		t.Fatalf("post-saturation read budget %v: EWMA stopped adapting", pol.budget())
	}
	if pol.warm != pollWarmSat {
		t.Fatalf("warm counter moved after saturation: %d", pol.warm)
	}
}

func TestAutoChunkNegotiatedAtConnect(t *testing.T) {
	r := newRig(t, DesignSHMZeroCopy, false, nil)
	r.e.Go("app", func(p *sim.Proc) {
		tp := model.DefaultTCPTransport()
		tp.AutoChunk = true
		c, err := Connect(p, r.link.A, ClientConfig{
			ConnOptions: session.ConnOptions{NQN: testNQN, QueueDepth: 8},
			Design:      DesignSHMZeroCopy, Region: r.region, TP: tp,
		})
		if err != nil {
			t.Fatal(err)
		}
		// The rig's control link is the loopback path: 1 MiB expected.
		if c.wire.cfg.TP.ChunkSize != 1<<20 {
			t.Errorf("auto chunk %d, want 1MiB", c.wire.cfg.TP.ChunkSize)
		}
		c.Close()
		c.WaitClosed(p)
	})
	if err := r.e.Run(); err != nil {
		t.Fatal(err)
	}
}

func TestAutoBusyPollAdaptsOnLiveTraffic(t *testing.T) {
	r := newRig(t, DesignSHMZeroCopy, false, nil)
	r.e.Go("app", func(p *sim.Proc) {
		tp := model.DefaultTCPTransport()
		tp.AutoBusyPoll = true
		c, err := Connect(p, r.link.A, ClientConfig{
			ConnOptions: session.ConnOptions{NQN: testNQN, QueueDepth: 8},
			Design:      DesignSHMZeroCopy, Region: r.region, TP: tp,
		})
		if err != nil {
			t.Fatal(err)
		}
		for i := 0; i < 64; i++ {
			transport.Submit(p, c, &transport.IO{Write: true, Offset: int64(i) * 4096, Size: 4096}).Wait(p)
		}
		if got := c.wire.PollBudget(); got != 100*time.Microsecond {
			t.Errorf("after writes budget %v, want 100us", got)
		}
		for i := 0; i < 128; i++ {
			transport.Submit(p, c, &transport.IO{Offset: int64(i) * 4096, Size: 4096}).Wait(p)
		}
		if got := c.wire.PollBudget(); got != 25*time.Microsecond {
			t.Errorf("after reads budget %v, want 25us", got)
		}
		c.Close()
		c.WaitClosed(p)
	})
	if err := r.e.Run(); err != nil {
		t.Fatal(err)
	}
}
