// Chaos suite: mixed read/write workloads run to completion under every
// injected fault class — target crash/restart, network partition, loss
// bursts, latency spikes, shared-memory revocation, pool-exhaustion
// shedding, and keep-alive expiry. The invariants, in every scenario:
// the engine drains with no deadlock (sim's deadlock detector doubles as
// the no-hang / no-leaked-worker assertion), every submitted command's
// future resolves with success or a typed NVMe error, target pool
// buffers all return, and the recovery counters reconcile.
package integration

import (
	"testing"
	"time"

	"nvmeoaf/internal/bdev"
	"nvmeoaf/internal/core"
	"nvmeoaf/internal/faults"
	"nvmeoaf/internal/model"
	"nvmeoaf/internal/netsim"
	"nvmeoaf/internal/nvme"
	"nvmeoaf/internal/session"
	"nvmeoaf/internal/shm"
	"nvmeoaf/internal/sim"
	"nvmeoaf/internal/target"
	"nvmeoaf/internal/telemetry"
	"nvmeoaf/internal/transport"
)

const chaosNQN = "nqn.chaos"

// chaosRig is a co-located client/target pair with a fault injector.
type chaosRig struct {
	e      *sim.Engine
	srv    *core.Server
	link   *netsim.Link
	fabric *core.Fabric
	region *shm.Region
	inj    *faults.Injector
	tel    *telemetry.Sink
}

func newChaosRig(t *testing.T, seed int64, design core.Design, retain bool, srvMut func(*core.ServerConfig)) *chaosRig {
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
	if _, err := sub.AddNamespace(1, bdev.NewSimSSD(e, "d", 1<<30, ssdParams, retain, transport.BlockSize)); err != nil {
		t.Fatal(err)
	}
	fabric := core.NewFabric(e, model.DefaultSHM())
	tel := telemetry.New()
	fabric.AttachTelemetry(tel)
	cfg := core.ServerConfig{
		ServeOptions: session.ServeOptions{NQN: chaosNQN, Telemetry: tel},
		Design:       design, Fabric: fabric, TP: model.DefaultTCPTransport(),
	}
	if srvMut != nil {
		srvMut(&cfg)
	}
	srv := core.NewServer(e, tgt, cfg)
	link := netsim.NewLoopLink(e, model.Loopback())
	srv.Serve(link.B)
	var region *shm.Region
	if design.UsesSHM() {
		r, err := fabric.RegionFor(design, "h", "h", 1<<20, 4<<10, 16)
		if err != nil {
			t.Fatal(err)
		}
		region = r
	}
	return &chaosRig{e: e, srv: srv, link: link, fabric: fabric, region: region, inj: faults.NewInjector(e), tel: tel}
}

// recoveryClient returns a ClientConfig with the failure-recovery
// machinery switched on.
func (r *chaosRig) recoveryClient(design core.Design) core.ClientConfig {
	return core.ClientConfig{
		ConnOptions: session.ConnOptions{NQN: chaosNQN, QueueDepth: 16, CommandTimeout: 1500 * time.Microsecond, MaxRetries: 10, RetryBackoff: 200 * time.Microsecond, Telemetry: r.tel},
		Design:      design, Region: r.region, TP: model.DefaultTCPTransport(),
	}
}

// mixedUntil submits waves of mixed reads and writes until the virtual
// clock passes deadline, classifying every resolution. Unknown statuses
// fail the test: under fault injection a command may succeed or fail
// with a typed transient error, nothing else.
func mixedUntil(t *testing.T, p *sim.Proc, c *core.Client, deadline time.Duration, size int) (total, oks, typed int) {
	t.Helper()
	const wave = 8
	flushWave := func(futs []*sim.Future[*transport.Result]) {
		for _, f := range futs {
			res := f.Wait(p)
			switch res.Status {
			case nvme.StatusSuccess:
				oks++
			case nvme.StatusTransientTransport, nvme.StatusCommandInterrupted, nvme.StatusDataTransferErr:
				typed++
			default:
				t.Errorf("unexpected status %v", res.Status)
			}
		}
	}
	end := sim.Time(deadline)
	for p.Now() < end || total == 0 {
		futs := make([]*sim.Future[*transport.Result], 0, wave)
		for i := 0; i < wave; i++ {
			io := &transport.IO{
				Write:  (total+i)%3 == 0,
				Offset: int64((total+i)%64) * int64(size),
				Size:   size,
			}
			futs = append(futs, transport.Submit(p, c, io))
		}
		total += wave
		flushWave(futs)
	}
	return total, oks, typed
}

// chaosOutcome captures everything a scenario asserts on, for the
// determinism double-run comparison.
type chaosOutcome struct {
	total, oks, typed                        int
	retries, timeouts, failovers, reconnects int64
	kaExpirations, shed                      int64
}

// checkInvariants asserts the universal chaos-suite invariants.
func (r *chaosRig) checkInvariants(t *testing.T, c *core.Client, out chaosOutcome) {
	t.Helper()
	if out.oks+out.typed != out.total {
		t.Errorf("resolved %d+%d of %d commands", out.oks, out.typed, out.total)
	}
	// Every deadline expiry either re-drove the command or burned one of
	// its attempts into the final typed failure.
	if out.retries+int64(out.typed) < out.timeouts {
		t.Errorf("counters do not reconcile: retries=%d typed=%d timeouts=%d",
			out.retries, out.typed, out.timeouts)
	}
	if got := r.srv.Pool().InUse(); got != 0 {
		t.Errorf("target pool leaked %d buffers", got)
	}
	// The observability layer must agree with the transport's own
	// accounting: every recovery event lands in the shared sink exactly
	// once. (The rig has one client and one server on one sink, so the
	// aggregate counters reconcile exactly.)
	snap := r.tel.Snapshot()
	for _, chk := range []struct {
		name string
		want int64
	}{
		{"client.retries", c.Retries},
		{"client.timeouts", c.Timeouts},
		{"client.failovers", c.Failovers},
		{"client.reconnects", c.Reconnects},
		{"client.completions", c.Completed},
		{"server.shed", r.srv.Shed},
		{"server.kato_expirations", r.srv.KAExpirations},
		{"server.stale_msgs", r.srv.StaleMsgs},
	} {
		if got := snap.Counters[chk.name]; got != chk.want {
			t.Errorf("telemetry %s = %d, transport says %d", chk.name, got, chk.want)
		}
	}
}

// runCrashScenario is the target crash/restart scenario, factored out so
// the determinism test can replay it.
func runCrashScenario(t *testing.T, seed int64) chaosOutcome {
	t.Helper()
	rig := newChaosRig(t, seed, core.DesignTCP, false, nil)
	rig.inj.CrashTarget(rig.srv, 3*time.Millisecond, 3*time.Millisecond)
	var out chaosOutcome
	var cl *core.Client
	rig.e.Go("app", func(p *sim.Proc) {
		cfg := rig.recoveryClient(core.DesignTCP)
		cfg.KeepAlive = time.Millisecond
		c, err := core.Connect(p, rig.link.A, cfg)
		if err != nil {
			t.Fatal(err)
		}
		cl = c
		out.total, out.oks, out.typed = mixedUntil(t, p, c, 15*time.Millisecond, 8<<10)
		c.Close()
		c.WaitClosed(p)
		out.retries, out.timeouts = c.Retries, c.Timeouts
		out.failovers, out.reconnects = c.Failovers, c.Reconnects
	})
	// Run to full drain: a deadlock error here means a command hung or a
	// worker leaked.
	if err := rig.e.Run(); err != nil {
		t.Fatalf("engine did not drain cleanly: %v", err)
	}
	out.kaExpirations, out.shed = rig.srv.KAExpirations, rig.srv.Shed
	rig.checkInvariants(t, cl, out)
	return out
}

func TestChaosTargetCrashRestart(t *testing.T) {
	out := runCrashScenario(t, 1)
	if out.timeouts == 0 {
		t.Error("a 3ms target outage produced no command timeouts")
	}
	if out.reconnects == 0 {
		t.Error("client never reconnected across the crash")
	}
	if out.oks == 0 {
		t.Error("no command succeeded after the restart")
	}
	if out.typed > out.total/2 {
		t.Errorf("%d of %d commands failed; recovery should save most", out.typed, out.total)
	}
}

func TestChaosCrashScenarioIsSeedReproducible(t *testing.T) {
	a := runCrashScenario(t, 7)
	b := runCrashScenario(t, 7)
	if a != b {
		t.Fatalf("same seed diverged:\n%+v\n%+v", a, b)
	}
}

func TestChaosNetworkPartitionHeals(t *testing.T) {
	rig := newChaosRig(t, 1, core.DesignTCP, false, nil)
	rig.inj.Partition(rig.link, 2*time.Millisecond, 3*time.Millisecond)
	var out chaosOutcome
	var cl *core.Client
	rig.e.Go("app", func(p *sim.Proc) {
		c, err := core.Connect(p, rig.link.A, rig.recoveryClient(core.DesignTCP))
		if err != nil {
			t.Fatal(err)
		}
		cl = c
		out.total, out.oks, out.typed = mixedUntil(t, p, c, 12*time.Millisecond, 8<<10)
		c.Close()
		c.WaitClosed(p)
		out.retries, out.timeouts = c.Retries, c.Timeouts
	})
	if err := rig.e.Run(); err != nil {
		t.Fatalf("engine did not drain cleanly: %v", err)
	}
	rig.checkInvariants(t, cl, out)
	if out.timeouts == 0 {
		t.Error("a 3ms partition produced no timeouts")
	}
	if rig.link.A.Drops == 0 {
		t.Error("partition dropped nothing; fault never applied")
	}
	if out.oks == 0 {
		t.Error("no command succeeded after the heal")
	}
}

func TestChaosLossBurstAndLatencySpike(t *testing.T) {
	rig := newChaosRig(t, 1, core.DesignTCP, false, nil)
	rig.inj.LossBurst(rig.link, 1*time.Millisecond, 3*time.Millisecond, 0.2, 300*time.Microsecond)
	rig.inj.LatencySpike(rig.link, 5*time.Millisecond, 2*time.Millisecond, 400*time.Microsecond)
	var out chaosOutcome
	var cl *core.Client
	rig.e.Go("app", func(p *sim.Proc) {
		c, err := core.Connect(p, rig.link.A, rig.recoveryClient(core.DesignTCP))
		if err != nil {
			t.Fatal(err)
		}
		cl = c
		out.total, out.oks, out.typed = mixedUntil(t, p, c, 10*time.Millisecond, 8<<10)
		c.Close()
		c.WaitClosed(p)
		out.retries, out.timeouts = c.Retries, c.Timeouts
	})
	if err := rig.e.Run(); err != nil {
		t.Fatalf("engine did not drain cleanly: %v", err)
	}
	rig.checkInvariants(t, cl, out)
	if rig.link.A.Retransmits+rig.link.B.Retransmits == 0 {
		t.Error("loss burst caused no retransmits; fault never applied")
	}
	// RTO recovery plus retry machinery must save everything: loss and
	// latency are degradations, not failures.
	if out.oks != out.total {
		t.Errorf("loss/latency failed %d of %d commands", out.typed, out.total)
	}
}

// TestChaosRegionRevocationMidStreamRead revokes the shared-memory
// mapping while a large chunked read is moving through it slot by slot:
// the target must fail over to the TCP data path mid-command and the
// read must complete with intact data.
func TestChaosRegionRevocationMidStreamRead(t *testing.T) {
	rig := newChaosRig(t, 1, core.DesignSHMLockFree, true, nil)
	const size = 512 << 10 // 128 stop-and-wait chunks: the revocation lands mid-train
	seed := make([]byte, size)
	for i := range seed {
		seed[i] = byte(i % 251)
	}
	var cl *core.Client
	rig.e.Go("app", func(p *sim.Proc) {
		c, err := core.Connect(p, rig.link.A, rig.recoveryClient(core.DesignSHMLockFree))
		if err != nil {
			t.Fatal(err)
		}
		cl = c
		if !c.SHMEnabled() {
			t.Fatal("co-located pair did not negotiate shared memory")
		}
		// Seed the device over the healthy shared-memory path.
		if res := transport.Submit(p, c, &transport.IO{Write: true, Size: size, Data: seed}).Wait(p); res.Status.IsError() {
			t.Fatalf("seed write failed: %v", res.Status)
		}
		// Revoke mid-read: the transfer below takes hundreds of
		// microseconds of per-chunk round trips.
		rig.inj.RevokeRegion(rig.region, 100*time.Microsecond)
		buf := make([]byte, size)
		res := transport.Submit(p, c, &transport.IO{Size: size, Data: buf}).Wait(p)
		if res.Status.IsError() {
			t.Fatalf("read across revocation failed: %v", res.Status)
		}
		if !equalBytes(buf, seed) {
			t.Fatal("read across revocation returned corrupt data")
		}
		if c.SHMEnabled() {
			t.Error("client still on shared memory after revocation")
		}
		// The fabric keeps serving over TCP.
		if res := transport.Submit(p, c, &transport.IO{Size: 8 << 10, Data: make([]byte, 8<<10)}).Wait(p); res.Status.IsError() {
			t.Errorf("post-failover read failed: %v", res.Status)
		}
		c.Close()
		c.WaitClosed(p)
	})
	if err := rig.e.Run(); err != nil {
		t.Fatalf("engine did not drain cleanly: %v", err)
	}
	if cl.Failovers != 1 {
		t.Errorf("failovers = %d, want 1", cl.Failovers)
	}
	if got := rig.srv.Pool().InUse(); got != 0 {
		t.Errorf("target pool leaked %d buffers", got)
	}
}

// TestChaosRegionRevocationMidStreamWrite revokes the region while a
// chunked write is moving payload through it: the target fails the write
// with a retryable typed error and the client re-drives it over TCP.
func TestChaosRegionRevocationMidStreamWrite(t *testing.T) {
	rig := newChaosRig(t, 1, core.DesignSHMLockFree, true, nil)
	const size = 512 << 10
	seed := make([]byte, size)
	for i := range seed {
		seed[i] = byte(i % 127)
	}
	var cl *core.Client
	rig.e.Go("app", func(p *sim.Proc) {
		c, err := core.Connect(p, rig.link.A, rig.recoveryClient(core.DesignSHMLockFree))
		if err != nil {
			t.Fatal(err)
		}
		cl = c
		rig.inj.RevokeRegion(rig.region, 100*time.Microsecond)
		if res := transport.Submit(p, c, &transport.IO{Write: true, Size: size, Data: seed}).Wait(p); res.Status.IsError() {
			t.Fatalf("write across revocation failed: %v", res.Status)
		}
		// Read back over the failed-over TCP path and verify content.
		buf := make([]byte, size)
		if res := transport.Submit(p, c, &transport.IO{Size: size, Data: buf}).Wait(p); res.Status.IsError() {
			t.Fatalf("verification read failed: %v", res.Status)
		} else if !equalBytes(buf, seed) {
			t.Fatal("write across revocation persisted corrupt data")
		}
		c.Close()
		c.WaitClosed(p)
	})
	if err := rig.e.Run(); err != nil {
		t.Fatalf("engine did not drain cleanly: %v", err)
	}
	if cl.Failovers != 1 {
		t.Errorf("failovers = %d, want 1", cl.Failovers)
	}
	if cl.Retries == 0 {
		t.Error("mid-stream write revocation caused no retry; the TCP re-drive never happened")
	}
	if got := rig.srv.Pool().InUse(); got != 0 {
		t.Errorf("target pool leaked %d buffers", got)
	}
}

// TestChaosShedUnderPoolExhaustion bounds the buffer-wait queue so the
// target sheds load with StatusCommandInterrupted instead of queueing
// without limit; shed commands retry and eventually complete.
func TestChaosShedUnderPoolExhaustion(t *testing.T) {
	rig := newChaosRig(t, 1, core.DesignTCP, false, func(cfg *core.ServerConfig) {
		cfg.TP.DataBuffers = 4 // two 2-chunk commands fill the pool
		cfg.MaxBufferWaiters = 1
	})
	var out chaosOutcome
	var cl *core.Client
	rig.e.Go("app", func(p *sim.Proc) {
		cfg := rig.recoveryClient(core.DesignTCP)
		cfg.CommandTimeout = 3 * time.Millisecond // sheds answer fast; timeouts are backup
		c, err := core.Connect(p, rig.link.A, cfg)
		if err != nil {
			t.Fatal(err)
		}
		cl = c
		size := 2 * rig.srv.Pool().ElemSize()
		out.total, out.oks, out.typed = mixedUntil(t, p, c, 5*time.Millisecond, size)
		c.Close()
		c.WaitClosed(p)
		out.retries, out.timeouts = c.Retries, c.Timeouts
	})
	if err := rig.e.Run(); err != nil {
		t.Fatalf("engine did not drain cleanly: %v", err)
	}
	out.shed = rig.srv.Shed
	rig.checkInvariants(t, cl, out)
	if out.shed == 0 {
		t.Error("pool exhaustion never shed; backpressure path unexercised")
	}
	if out.oks == 0 {
		t.Error("no command succeeded under shedding")
	}
}

// TestChaosKATOTeardownOnAFPath mirrors the TCP transport's keep-alive
// semantics on the adaptive fabric: a silent connection expires (and the
// target re-listens, so the client's next command still works); a
// keep-alive-sending client survives.
func TestChaosKATOTeardownOnAFPath(t *testing.T) {
	run := func(keepAlive time.Duration) (int64, bool) {
		rig := newChaosRig(t, 1, core.DesignTCP, false, func(cfg *core.ServerConfig) {
			cfg.KATO = 2 * time.Millisecond
		})
		ioOK := false
		rig.e.Go("app", func(p *sim.Proc) {
			cfg := rig.recoveryClient(core.DesignTCP)
			cfg.KeepAlive = keepAlive
			c, err := core.Connect(p, rig.link.A, cfg)
			if err != nil {
				t.Fatal(err)
			}
			p.Sleep(10 * time.Millisecond) // idle through several KATO windows
			res := transport.Submit(p, c, &transport.IO{Size: 8 << 10}).Wait(p)
			ioOK = !res.Status.IsError()
			c.Close()
			c.WaitClosed(p)
		})
		if err := rig.e.Run(); err != nil {
			t.Fatalf("engine did not drain cleanly: %v", err)
		}
		return rig.srv.KAExpirations, ioOK
	}
	expirations, ioOK := run(0)
	if expirations == 0 {
		t.Error("silent AF connection never hit the KATO watchdog")
	}
	if !ioOK {
		t.Error("I/O after KATO teardown failed; target did not re-listen")
	}
	expirations, ioOK = run(800 * time.Microsecond)
	if expirations != 0 {
		t.Error("keep-alive-sending client hit the KATO watchdog")
	}
	if !ioOK {
		t.Error("I/O on the kept-alive connection failed")
	}
}

func equalBytes(a, b []byte) bool {
	if len(a) != len(b) {
		return false
	}
	for i := range a {
		if a[i] != b[i] {
			return false
		}
	}
	return true
}
