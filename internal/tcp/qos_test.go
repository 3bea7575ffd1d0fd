package tcp

import (
	"testing"
	"time"

	"nvmeoaf/internal/bdev"
	"nvmeoaf/internal/dial"
	"nvmeoaf/internal/model"
	"nvmeoaf/internal/netsim"
	"nvmeoaf/internal/qos"
	"nvmeoaf/internal/session"
	"nvmeoaf/internal/sim"
	"nvmeoaf/internal/target"
	"nvmeoaf/internal/telemetry"
	"nvmeoaf/internal/transport"
)

// TestTargetSideThrottleRejectsAndRedrives: with enforcement at the
// TARGET, an over-budget tenant's command is rejected with the typed
// retryable StatusTenantThrottled instead of being held hostage in the
// server; the host's retry machinery re-drives it until tokens refill,
// so the submission still completes — late, not lost.
func TestTargetSideThrottleRejectsAndRedrives(t *testing.T) {
	e := sim.NewEngine(3)
	tel := telemetry.New()
	tgt := target.New(e, model.DefaultHost())
	sub, err := tgt.AddSubsystem(testNQN)
	if err != nil {
		t.Fatal(err)
	}
	ssdParams := model.DefaultSSD()
	ssdParams.JitterFrac = 0
	ssdParams.StallProb = 0
	bd := bdev.NewSimSSD(e, "nvme0", 1<<30, ssdParams, false, transport.BlockSize)
	if _, err := sub.AddNamespace(1, bd); err != nil {
		t.Fatal(err)
	}

	reg := qos.NewRegistry()
	// 4 KiB of burst refilling at 8 MiB/s: the second 4 KiB write in a
	// burst must be rejected and succeed only on a later re-drive.
	if err := reg.Add(qos.Spec{Name: "capped", RateBps: 8 << 20, BurstBytes: 4 << 10}); err != nil {
		t.Fatal(err)
	}
	tsh := qos.NewShaper("target", reg, tel)

	link := netsim.NewLoopLink(e, model.TCP25G())
	o := dial.Options{
		Kind:        dial.TCP25G,
		ConnOptions: session.ConnOptions{NQN: testNQN, QueueDepth: 8, Telemetry: tel, Tenant: "capped", CommandTimeout: 2 * time.Millisecond, MaxRetries: 64, RetryBackoff: 50 * time.Microsecond},
		TargetQoS:   tsh,
		TP:          model.DefaultTCPTransport(),
	}
	dial.Serve(e, tgt, link.B, o)

	e.Go("app", func(p *sim.Proc) {
		c, err := dial.Connect(p, link.A, o)
		if err != nil {
			t.Fatal(err)
		}
		defer c.Close()
		for i := 0; i < 8; i++ {
			io := &transport.IO{Write: true, NSID: 1, Offset: int64(i) << 12, Size: 4 << 10, Tenant: "capped"}
			fut := transport.Submit(p, c, io)
			res := fut.Wait(p)
			if err := res.Err(); err != nil {
				t.Fatalf("write %d failed despite retryable throttle: %v", i, err)
			}
		}
	})
	if err := e.Run(); err != nil {
		t.Fatal(err)
	}

	snap := tel.Snapshot()
	tv := snap.Tenants["capped"]
	if got := tv.Counters["tenant.throttled"]; got == 0 {
		t.Error("32 KiB against a 4 KiB burst never tripped the target-side throttle")
	}
	if got := tv.Counters["tenant.completions"]; got != 8 {
		t.Errorf("completions = %d, want all 8 re-driven to success", got)
	}
	if err := tsh.Conservation().Check(); err != nil {
		t.Errorf("token conservation violated: %v", err)
	}
}

// TestTenantHostNQNRoundTrip: the tenant rides inside the fixed-width
// Connect hostNQN field, so encode/decode must round-trip and the
// empty tenant must leave the NQN byte-identical (wire inertness).
func TestTenantHostNQNRoundTrip(t *testing.T) {
	const hn = "nqn.2014-08.org.nvmexpress:uuid:host1"
	if got := session.TenantHostNQN(hn, ""); got != hn {
		t.Errorf("empty tenant changed the hostNQN: %q", got)
	}
	enc := session.TenantHostNQN(hn, "tenant-a")
	gotHost, gotTenant := session.SplitTenantHostNQN(enc)
	if gotHost != hn || gotTenant != "tenant-a" {
		t.Errorf("round trip = (%q, %q), want (%q, %q)", gotHost, gotTenant, hn, "tenant-a")
	}
	if h, tn := session.SplitTenantHostNQN(hn); h != hn || tn != "" {
		t.Errorf("bare NQN split = (%q, %q)", h, tn)
	}
}
