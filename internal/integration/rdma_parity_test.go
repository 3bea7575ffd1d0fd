// RDMA recovery parity: the session-engine extraction gives the RDMA
// binding the same telemetry, keep-alive, deadline/retry, and KATO
// machinery the adaptive and TCP transports have. These tests hold the
// RDMA path to the same chaos-suite invariants — every command resolves
// with success or a typed transient error, the engine drains without
// deadlock, and the telemetry sink agrees with the transport's own
// recovery counters.
package integration

import (
	"testing"
	"time"

	"nvmeoaf/internal/bdev"
	"nvmeoaf/internal/faults"
	"nvmeoaf/internal/model"
	"nvmeoaf/internal/netsim"
	"nvmeoaf/internal/nvme"
	"nvmeoaf/internal/rdma"
	"nvmeoaf/internal/session"
	"nvmeoaf/internal/sim"
	"nvmeoaf/internal/target"
	"nvmeoaf/internal/telemetry"
	"nvmeoaf/internal/transport"
)

type rdmaRig struct {
	e    *sim.Engine
	srv  *rdma.Server
	link *netsim.Link
	inj  *faults.Injector
	tel  *telemetry.Sink
}

func newRDMARig(t *testing.T, seed int64, kato time.Duration) *rdmaRig {
	t.Helper()
	e := sim.NewEngine(seed)
	tgt := target.New(e, model.DefaultHost())
	sub, err := tgt.AddSubsystem(chaosNQN)
	if err != nil {
		t.Fatal(err)
	}
	ssdParams := model.DefaultSSD()
	ssdParams.JitterFrac = 0
	ssdParams.StallProb = 0
	if _, err := sub.AddNamespace(1, bdev.NewSimSSD(e, "d", 1<<30, ssdParams, false, transport.BlockSize)); err != nil {
		t.Fatal(err)
	}
	prm := model.RDMA56G()
	prm.MemRegWarmOps = 0.001 // decays immediately: no registration tail
	prm.MemRegFloorProb = 0
	tel := telemetry.New()
	srv := rdma.NewServer(e, tgt, rdma.ServerConfig{
		ServeOptions: session.ServeOptions{NQN: chaosNQN, KATO: kato, Telemetry: tel},
	})
	link := netsim.NewLoopLink(e, rdma.LinkParams(prm))
	srv.Serve(link.B)
	return &rdmaRig{e: e, srv: srv, link: link, inj: faults.NewInjector(e), tel: tel}
}

// rdmaMixedUntil is mixedUntil for the RDMA client type.
func rdmaMixedUntil(t *testing.T, p *sim.Proc, c *rdma.Client, deadline time.Duration, size int) (total, oks, typed int) {
	t.Helper()
	const wave = 8
	end := sim.Time(deadline)
	for p.Now() < end || total == 0 {
		futs := make([]*sim.Future[*transport.Result], 0, wave)
		for i := 0; i < wave; i++ {
			futs = append(futs, transport.Submit(p, c, &transport.IO{
				Write:  (total+i)%3 == 0,
				Offset: int64((total+i)%64) * int64(size),
				Size:   size,
			}))
		}
		total += wave
		for _, f := range futs {
			switch res := f.Wait(p); res.Status {
			case nvme.StatusSuccess:
				oks++
			case nvme.StatusTransientTransport, nvme.StatusCommandInterrupted, nvme.StatusDataTransferErr:
				typed++
			default:
				t.Errorf("unexpected status %v", res.Status)
			}
		}
	}
	return total, oks, typed
}

// TestChaosRDMACrashRestartParity runs the target crash/restart scenario
// over RDMA with the full recovery stack on — the scenario the RDMA
// binding could not survive before the extraction (it had no deadlines,
// retries, keep-alive, or reconnect).
func TestChaosRDMACrashRestartParity(t *testing.T) {
	rig := newRDMARig(t, 1, 0)
	rig.inj.CrashTarget(rig.srv, 3*time.Millisecond, 3*time.Millisecond)
	var cl *rdma.Client
	var total, oks, typed int
	rig.e.Go("app", func(p *sim.Proc) {
		c, err := rdma.Connect(p, rig.link.A, rdma.ClientConfig{
			ConnOptions: session.ConnOptions{NQN: chaosNQN, QueueDepth: 16, CommandTimeout: 1500 * time.Microsecond, MaxRetries: 10, RetryBackoff: 200 * time.Microsecond, KeepAlive: time.Millisecond, Telemetry: rig.tel},
			Params: func() model.RDMAParams {
				prm := model.RDMA56G()
				prm.MemRegWarmOps = 0.001
				prm.MemRegFloorProb = 0
				return prm
			}(),
		})
		if err != nil {
			t.Fatal(err)
		}
		cl = c
		total, oks, typed = rdmaMixedUntil(t, p, c, 15*time.Millisecond, 8<<10)
		c.Close()
		c.WaitClosed(p)
	})
	if err := rig.e.Run(); err != nil {
		t.Fatalf("engine did not drain cleanly: %v", err)
	}
	if oks+typed != total {
		t.Errorf("resolved %d+%d of %d commands", oks, typed, total)
	}
	if cl.Timeouts == 0 {
		t.Error("a 3ms outage produced no command timeouts on RDMA")
	}
	if cl.Reconnects == 0 {
		t.Error("RDMA client never reconnected across the crash")
	}
	if oks == 0 {
		t.Error("no command succeeded after restart")
	}
	// Parity with the adaptive/TCP chaos invariant: every recovery event
	// lands in the shared sink exactly once.
	snap := rig.tel.Snapshot()
	for _, chk := range []struct {
		name string
		want int64
	}{
		{"client.retries", cl.Retries},
		{"client.timeouts", cl.Timeouts},
		{"client.reconnects", cl.Reconnects},
		{"client.completions", cl.Completed},
	} {
		if got := snap.Counters[chk.name]; got != chk.want {
			t.Errorf("telemetry %s = %d, transport says %d", chk.name, got, chk.want)
		}
	}
}

// TestChaosRDMAKATOExpiry: an RDMA client with keep-alive off goes idle
// past the target's KATO; the engine's watchdog (new to RDMA) must tear
// the connection down and count the expiry, and a second client with
// keep-alive on must survive the same idle window.
func TestChaosRDMAKATOExpiry(t *testing.T) {
	prm := model.RDMA56G()
	prm.MemRegWarmOps = 0.001
	prm.MemRegFloorProb = 0
	run := func(keepAlive time.Duration) int64 {
		rig := newRDMARig(t, 1, 2*time.Millisecond)
		rig.e.Go("app", func(p *sim.Proc) {
			c, err := rdma.Connect(p, rig.link.A, rdma.ClientConfig{
				ConnOptions: session.ConnOptions{NQN: chaosNQN, QueueDepth: 4, KeepAlive: keepAlive, CommandTimeout: 1500 * time.Microsecond, MaxRetries: 10, RetryBackoff: 200 * time.Microsecond, Telemetry: rig.tel},
				Params:      prm,
			})
			if err != nil {
				t.Fatal(err)
			}
			if res := transport.Submit(p, c, &transport.IO{Write: true, Size: 4096, NoFill: true}).Wait(p); res.Err() != nil {
				t.Fatalf("pre-idle write: %v", res.Err())
			}
			p.Sleep(10 * time.Millisecond) // idle through several KATO windows
			// After the idle gap the connection either survived
			// (keep-alive) or was torn down; the recovery stack must get
			// this I/O through either way, as on the TCP path.
			if res := transport.Submit(p, c, &transport.IO{Offset: 0, Size: 4096}).Wait(p); res.Err() != nil {
				t.Errorf("post-idle read (keepAlive=%v): %v", keepAlive, res.Err())
			}
			c.Close()
			c.WaitClosed(p)
		})
		if err := rig.e.Run(); err != nil {
			t.Fatalf("engine did not drain cleanly: %v", err)
		}
		return rig.srv.KAExpirations
	}
	if exp := run(0); exp == 0 {
		t.Error("idle RDMA connection did not trip the KATO watchdog")
	}
	if exp := run(500 * time.Microsecond); exp != 0 {
		t.Error("kept-alive RDMA connection expired anyway")
	}
}

// TestChaosRDMABatchTelemetryParity: doorbell batching plus telemetry on
// the RDMA binding — batch-size histograms and submit counters must
// populate, and batched submission must complete everything.
func TestChaosRDMABatchTelemetryParity(t *testing.T) {
	rig := newRDMARig(t, 1, 0)
	prm := model.RDMA56G()
	prm.MemRegWarmOps = 0.001
	prm.MemRegFloorProb = 0
	rig.e.Go("app", func(p *sim.Proc) {
		c, err := rdma.Connect(p, rig.link.A, rdma.ClientConfig{
			ConnOptions: session.ConnOptions{NQN: chaosNQN, QueueDepth: 32, Telemetry: rig.tel},
			Params:      prm, BatchSize: 8,
		})
		if err != nil {
			t.Fatal(err)
		}
		ios := make([]*transport.IO, 64)
		for i := range ios {
			ios[i] = &transport.IO{Write: i%2 == 0, Offset: int64(i) * 4096, Size: 4096, NoFill: true}
		}
		futs := transport.SubmitBatch(p, c, ios, nil)
		for i, f := range futs {
			if res := f.Wait(p); res.Err() != nil {
				t.Fatalf("batched io %d: %v", i, res.Err())
			}
		}
		c.Close()
		c.WaitClosed(p)
	})
	if err := rig.e.Run(); err != nil {
		t.Fatalf("engine did not drain cleanly: %v", err)
	}
	snap := rig.tel.Snapshot()
	h, ok := snap.Histograms["batch.submit_size"]
	if !ok || h.Count == 0 {
		t.Fatal("RDMA batching recorded no batch-size samples")
	}
	if h.Max < 2 {
		t.Errorf("batch-size max %d: doorbell coalescing never formed a train", h.Max)
	}
	if got := snap.Counters["client.completions"]; got != 64 {
		t.Errorf("client.completions = %d, want 64", got)
	}
}
