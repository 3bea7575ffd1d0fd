// Package conformance runs one table-driven behavioural suite against
// every fabric kind of the dial table — the three NVMe/TCP speeds, both
// NVMe/RDMA fabrics, and both adaptive kinds (on the TCP data path) — so
// both wire bindings, and the adaptive one under both transport types,
// are covered. The session-engine extraction
// promises that connect, I/O, flush, doorbell batching, deadline/retry
// recovery, buffer-pool shedding, and KATO expiry behave uniformly across
// transports; each test here is that promise for one behaviour,
// parameterized only by the kind.
package conformance

import (
	"bytes"
	"testing"
	"time"

	"nvmeoaf/internal/bdev"
	"nvmeoaf/internal/dial"
	"nvmeoaf/internal/faults"
	"nvmeoaf/internal/mempool"
	"nvmeoaf/internal/model"
	"nvmeoaf/internal/netsim"
	"nvmeoaf/internal/nvme"
	"nvmeoaf/internal/session"
	"nvmeoaf/internal/sim"
	"nvmeoaf/internal/target"
	"nvmeoaf/internal/telemetry"
	"nvmeoaf/internal/transport"
)

const confNQN = "nqn.conformance"

// client is the cross-transport host-side surface: every binding embeds
// *session.Host, so these methods promote on all three client types.
type client interface {
	transport.Queue
	WaitClosed(p *sim.Proc)
	Stats() session.HostStats
}

// clientOpts are the engine knobs the suite varies.
type clientOpts struct {
	queueDepth int
	batchSize  int
	timeout    time.Duration
	maxRetries int
	backoff    time.Duration
	keepAlive  time.Duration
	telemetry  *telemetry.Sink
	// fastPath requests the RDMA fast path (MR regcache + adjacent-
	// request merging + dynamic doorbells). The core binding (tcp and
	// adaptive kinds) has no such knobs and must ignore it —
	// fastpath_test.go pins that inertness at the wire level.
	fastPath bool
}

// srvOpts are the target-side knobs.
type srvOpts struct {
	kato     time.Duration
	tinyPool bool // 4-buffer pool + 1 waiter: forces shedding
	retain   bool // namespace retains data for integrity checks
}

// rig is one connected transport instance.
type rig struct {
	e    *sim.Engine
	tgt  *session.Target // server core: counters, crash/restart
	pool *mempool.Pool   // nil for RDMA (direct placement, no pool)
	inj  *faults.Injector
	link *netsim.Link // the host-target wire, for message/byte identity checks
	// connect dials a new host-side queue.
	connect func(p *sim.Proc, o clientOpts) client
}

// binding is one fabric kind under test, under the name its subtests
// print.
type binding struct {
	name string
	kind dial.Kind
}

// rdma reports a direct-placement kind: no data pool to shed from, and
// the only binding on which the fast path bites.
func (b binding) rdma() bool { return b.kind == dial.RDMA56 || b.kind == dial.RoCE100 }

func newBackend(t *testing.T, seed int64, retain bool) (*sim.Engine, *target.Target) {
	t.Helper()
	e := sim.NewEngine(seed)
	tgt := target.New(e, model.DefaultHost())
	sub, err := tgt.AddSubsystem(confNQN)
	if err != nil {
		t.Fatal(err)
	}
	ssdParams := model.DefaultSSD()
	ssdParams.JitterFrac = 0
	ssdParams.StallProb = 0
	if _, err := sub.AddNamespace(1, bdev.NewSimSSD(e, "d", 1<<30, ssdParams, retain, transport.BlockSize)); err != nil {
		t.Fatal(err)
	}
	return e, tgt
}

// build serves the backend over b's kind on the kind's own link. The
// rdma kinds run with memory-registration stalls modelled away, and the
// adaptive kinds without a region (DesignTCP): the suite is about the
// session engine, not a binding's data-path extras.
func (b binding) build(t *testing.T, seed int64, so srvOpts) *rig {
	t.Helper()
	e, tgt := newBackend(t, seed, so.retain)
	lp, err := b.kind.Link()
	if err != nil {
		t.Fatal(err)
	}
	link := netsim.NewLoopLink(e, lp)
	base := dial.Options{
		Kind:        b.kind,
		ConnOptions: session.ConnOptions{NQN: confNQN},
		KATO:        so.kato,
		TP:          model.DefaultTCPTransport(),
	}
	if b.rdma() {
		prm := model.RDMA56G()
		if b.kind == dial.RoCE100 {
			prm = model.RoCE100G()
		}
		prm.MemRegWarmOps = 0.001
		prm.MemRegFloorProb = 0
		base.RDMA = &prm
	}
	serve := base
	if so.tinyPool {
		serve.TP.DataBuffers = 4
		serve.MaxBufferWaiters = 1
	}
	srv := dial.Serve(e, tgt, link.B, serve)
	return &rig{
		e: e, tgt: srv.Target, pool: srv.Pool, inj: faults.NewInjector(e), link: link,
		connect: func(p *sim.Proc, o clientOpts) client {
			co := base
			co.QueueDepth, co.Telemetry = o.queueDepth, o.telemetry
			co.CommandTimeout, co.MaxRetries, co.RetryBackoff, co.KeepAlive = o.timeout, o.maxRetries, o.backoff, o.keepAlive
			co.TP.BatchSize = o.batchSize
			co.RegCache, co.Merge, co.DynDoorbell = o.fastPath, o.fastPath, o.fastPath
			q, err := dial.Connect(p, link.A, co)
			if err != nil {
				t.Fatal(err)
			}
			return q.(client)
		},
	}
}

// The first three are the suite's original rows, one per wire binding,
// and keep the names they have always printed.
var bindings = []binding{
	{"core", dial.OAF}, {"tcp", dial.TCP25G}, {"rdma", dial.RDMA56},
	{"tcp-10g", dial.TCP10G}, {"tcp-100g", dial.TCP100G},
	{"roce-100g", dial.RoCE100}, {"nvme-oaf-rdmactl", dial.OAFRDMACtl},
}

// forEach runs f as a subtest per binding.
func forEach(t *testing.T, f func(t *testing.T, b binding)) {
	for _, b := range bindings {
		b := b
		t.Run(b.name, func(t *testing.T) { f(t, b) })
	}
}

// TestConformanceConnectIdentifyIO: handshake, controller identify over
// the admin queue, then a write/read roundtrip with payload integrity.
func TestConformanceConnectIdentifyIO(t *testing.T) {
	forEach(t, func(t *testing.T, b binding) {
		r := b.build(t, 1, srvOpts{retain: true})
		r.e.Go("app", func(p *sim.Proc) {
			c := r.connect(p, clientOpts{queueDepth: 8})
			buf := make([]byte, 4096)
			res := transport.Submit(p, c, &transport.IO{
				Admin: nvme.AdminIdentify, CDW10: nvme.CNSController, Data: buf, Size: 4096,
			}).Wait(p)
			if err := res.Err(); err != nil {
				t.Fatalf("identify: %v", err)
			}
			if _, err := nvme.DecodeIdentifyController(res.Data); err != nil {
				t.Fatalf("identify decode: %v", err)
			}
			payload := make([]byte, 16<<10)
			for i := range payload {
				payload[i] = byte(i % 251)
			}
			if res := transport.Submit(p, c, &transport.IO{Write: true, Size: len(payload), Data: payload}).Wait(p); res.Err() != nil {
				t.Fatalf("write: %v", res.Err())
			}
			into := make([]byte, len(payload))
			got := transport.Submit(p, c, &transport.IO{Size: len(into), Data: into}).Wait(p)
			if got.Err() != nil {
				t.Fatalf("read: %v", got.Err())
			}
			if !bytes.Equal(got.Data, payload) {
				t.Error("read payload differs from written payload")
			}
			c.Close()
			c.WaitClosed(p)
		})
		if err := r.e.Run(); err != nil {
			t.Fatal(err)
		}
	})
}

// TestConformanceFlush: a flush after acknowledged writes completes with
// success on every transport.
func TestConformanceFlush(t *testing.T) {
	forEach(t, func(t *testing.T, b binding) {
		r := b.build(t, 1, srvOpts{})
		r.e.Go("app", func(p *sim.Proc) {
			c := r.connect(p, clientOpts{queueDepth: 8})
			for i := 0; i < 4; i++ {
				if res := transport.Submit(p, c, &transport.IO{Write: true, Offset: int64(i) * 4096, Size: 4096, NoFill: true}).Wait(p); res.Err() != nil {
					t.Fatalf("write %d: %v", i, res.Err())
				}
			}
			if res := transport.Submit(p, c, &transport.IO{Flush: true}).Wait(p); res.Err() != nil {
				t.Fatalf("flush: %v", res.Err())
			}
			c.Close()
			c.WaitClosed(p)
		})
		if err := r.e.Run(); err != nil {
			t.Fatal(err)
		}
	})
}

// TestConformanceBatch: doorbell-coalesced submission completes every
// command and records train sizes > 1 on every transport.
func TestConformanceBatch(t *testing.T) {
	forEach(t, func(t *testing.T, b binding) {
		r := b.build(t, 1, srvOpts{})
		tel := telemetry.New()
		r.e.Go("app", func(p *sim.Proc) {
			c := r.connect(p, clientOpts{queueDepth: 32, batchSize: 8, telemetry: tel})
			ios := make([]*transport.IO, 64)
			for i := range ios {
				ios[i] = &transport.IO{Write: i%2 == 0, Offset: int64(i) * 4096, Size: 4096, NoFill: true}
			}
			for i, f := range transport.SubmitBatch(p, c, ios, nil) {
				if res := f.Wait(p); res.Err() != nil {
					t.Fatalf("batched io %d: %v", i, res.Err())
				}
			}
			if c.Stats().Completed != 64 {
				t.Errorf("completed %d of 64", c.Stats().Completed)
			}
			c.Close()
			c.WaitClosed(p)
		})
		if err := r.e.Run(); err != nil {
			t.Fatal(err)
		}
		hist, ok := tel.Snapshot().Histograms["batch.submit_size"]
		if !ok || hist.Max < 2 {
			t.Errorf("no coalesced trains recorded (hist=%+v)", hist)
		}
	})
}

// TestConformanceTimeoutRecovery: a target crash/restart forces command
// deadlines to expire; retries and reconnect must carry the workload
// through on every transport.
func TestConformanceTimeoutRecovery(t *testing.T) {
	forEach(t, func(t *testing.T, b binding) {
		r := b.build(t, 1, srvOpts{})
		r.inj.CrashTarget(r.tgt, 2*time.Millisecond, 2*time.Millisecond)
		r.e.Go("app", func(p *sim.Proc) {
			c := r.connect(p, clientOpts{
				queueDepth: 8,
				timeout:    1500 * time.Microsecond,
				maxRetries: 10,
				backoff:    200 * time.Microsecond,
				keepAlive:  time.Millisecond,
			})
			oks := 0
			for i := 0; p.Now() < sim.Time(10*time.Millisecond); i++ {
				res := transport.Submit(p, c, &transport.IO{
					Write: i%3 == 0, Offset: int64(i%32) * 4096, Size: 4096, NoFill: true,
				}).Wait(p)
				switch res.Status {
				case nvme.StatusSuccess:
					oks++
				case nvme.StatusTransientTransport, nvme.StatusCommandInterrupted, nvme.StatusDataTransferErr:
				default:
					t.Errorf("unexpected status %v", res.Status)
				}
			}
			if c.Stats().Timeouts == 0 {
				t.Error("outage produced no timeouts")
			}
			if c.Stats().Reconnects == 0 {
				t.Error("client never reconnected")
			}
			if oks == 0 {
				t.Error("no command succeeded after restart")
			}
			c.Close()
			c.WaitClosed(p)
		})
		if err := r.e.Run(); err != nil {
			t.Fatalf("engine did not drain cleanly: %v", err)
		}
	})
}

// TestConformanceShed: with a starved buffer pool and a one-deep waiter
// bound, overload answers with a retryable typed error instead of
// queueing without bound. RDMA places data directly into registered
// memory — no pool, nothing to shed — so it is exempt by construction.
func TestConformanceShed(t *testing.T) {
	forEach(t, func(t *testing.T, b binding) {
		if b.rdma() {
			t.Skip("direct data placement: no buffer pool to shed from")
		}
		r := b.build(t, 1, srvOpts{tinyPool: true})
		r.e.Go("app", func(p *sim.Proc) {
			c := r.connect(p, clientOpts{queueDepth: 16, timeout: 3 * time.Millisecond, maxRetries: 8, backoff: 200 * time.Microsecond})
			size := 2 * r.pool.ElemSize()
			futs := make([]*sim.Future[*transport.Result], 0, 32)
			for i := 0; i < 32; i++ {
				futs = append(futs, transport.Submit(p, c, &transport.IO{Offset: int64(i%8) * int64(size), Size: size}))
			}
			oks, typed := 0, 0
			for _, f := range futs {
				switch res := f.Wait(p); res.Status {
				case nvme.StatusSuccess:
					oks++
				case nvme.StatusCommandInterrupted, nvme.StatusTransientTransport:
					typed++
				default:
					t.Errorf("unexpected status %v", res.Status)
				}
			}
			if oks == 0 {
				t.Error("no command succeeded under shedding")
			}
			c.Close()
			c.WaitClosed(p)
		})
		if err := r.e.Run(); err != nil {
			t.Fatalf("engine did not drain cleanly: %v", err)
		}
		if r.tgt.Shed == 0 {
			t.Error("pool exhaustion never shed")
		}
		if got := r.pool.InUse(); got != 0 {
			t.Errorf("pool leaked %d buffers", got)
		}
	})
}

// TestConformanceKATOExpiry: a silent connection expires at the target;
// a keep-alive-sending client survives the same idle window.
func TestConformanceKATOExpiry(t *testing.T) {
	forEach(t, func(t *testing.T, b binding) {
		run := func(keepAlive time.Duration) int64 {
			r := b.build(t, 1, srvOpts{kato: 2 * time.Millisecond})
			r.e.Go("app", func(p *sim.Proc) {
				c := r.connect(p, clientOpts{
					queueDepth: 4, keepAlive: keepAlive,
					timeout: 1500 * time.Microsecond, maxRetries: 10, backoff: 200 * time.Microsecond,
				})
				if res := transport.Submit(p, c, &transport.IO{Write: true, Size: 4096, NoFill: true}).Wait(p); res.Err() != nil {
					t.Fatalf("pre-idle write: %v", res.Err())
				}
				p.Sleep(10 * time.Millisecond)
				if res := transport.Submit(p, c, &transport.IO{Size: 4096}).Wait(p); res.Err() != nil {
					t.Errorf("post-idle read (keepAlive=%v): %v", keepAlive, res.Err())
				}
				c.Close()
				c.WaitClosed(p)
			})
			if err := r.e.Run(); err != nil {
				t.Fatalf("engine did not drain cleanly: %v", err)
			}
			return r.tgt.KAExpirations
		}
		if exp := run(0); exp == 0 {
			t.Error("silent connection never hit the KATO watchdog")
		}
		if exp := run(800 * time.Microsecond); exp != 0 {
			t.Error("keep-alive-sending client hit the KATO watchdog")
		}
	})
}
