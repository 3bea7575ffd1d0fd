// Package integration holds cross-module end-to-end tests: determinism of
// whole experiments, failure propagation from the device to the
// application, cross-fabric data consistency, and multi-tenant isolation.
package integration

import (
	"bytes"
	"errors"
	"fmt"
	"testing"
	"time"

	"nvmeoaf/internal/bdev"
	"nvmeoaf/internal/core"
	"nvmeoaf/internal/dial"
	"nvmeoaf/internal/exp"
	"nvmeoaf/internal/host"
	"nvmeoaf/internal/model"
	"nvmeoaf/internal/netsim"
	"nvmeoaf/internal/nvme"
	"nvmeoaf/internal/perf"
	"nvmeoaf/internal/session"
	"nvmeoaf/internal/sim"
	"nvmeoaf/internal/target"
	"nvmeoaf/internal/transport"
)

func TestFullExperimentDeterminism(t *testing.T) {
	// The same seed must yield bit-identical results across runs.
	run := func() *exp.Result {
		res, err := exp.Run(exp.Config{
			Kind:    exp.OAF,
			Streams: 2,
			Workload: perf.Workload{
				Seq: false, ReadPct: 70, IOSize: 128 << 10, QueueDepth: 32,
				Warmup: 20 * time.Millisecond, Duration: 100 * time.Millisecond,
			},
			Seed: 1234,
		})
		if err != nil {
			t.Fatal(err)
		}
		return res
	}
	a, b := run(), run()
	if a.Agg.Throughput.Ops != b.Agg.Throughput.Ops ||
		a.Agg.Throughput.Bytes != b.Agg.Throughput.Bytes {
		t.Fatalf("throughput diverged: %+v vs %+v", a.Agg.Throughput, b.Agg.Throughput)
	}
	if a.Agg.Latency.Sum() != b.Agg.Latency.Sum() || a.Agg.Latency.Max() != b.Agg.Latency.Max() {
		t.Fatalf("latency histograms diverged")
	}
	if a.WireBytes != b.WireBytes || a.SHMBytes != b.SHMBytes {
		t.Fatalf("byte accounting diverged")
	}
	// A different seed must actually change something.
	c, err := exp.Run(exp.Config{
		Kind:    exp.OAF,
		Streams: 2,
		Workload: perf.Workload{
			Seq: false, ReadPct: 70, IOSize: 128 << 10, QueueDepth: 32,
			Warmup: 20 * time.Millisecond, Duration: 100 * time.Millisecond,
		},
		Seed: 99,
	})
	if err != nil {
		t.Fatal(err)
	}
	if c.Agg.Latency.Sum() == a.Agg.Latency.Sum() {
		t.Fatal("different seeds produced identical latency sums")
	}
}

func TestDeviceFailurePropagatesToApplication(t *testing.T) {
	// An injected bdev failure must surface as an NVMe internal error at
	// the application, and the connection must keep serving afterwards.
	e := sim.NewEngine(1)
	tgt := target.New(e, model.DefaultHost())
	sub, _ := tgt.AddSubsystem("nqn.flaky")
	ssdParams := model.DefaultSSD()
	ssdParams.JitterFrac = 0
	ssdParams.StallProb = 0
	inner := bdev.NewSimSSD(e, "d", 1<<30, ssdParams, false, transport.BlockSize)
	sub.AddNamespace(1, bdev.NewFaulty(e, inner, 5, errors.New("media error")))
	fabric := core.NewFabric(e, model.DefaultSHM())
	srv := core.NewServer(e, tgt, core.ServerConfig{
		ServeOptions: session.ServeOptions{NQN: "nqn.flaky"},
		Design:       core.DesignSHMZeroCopy, Fabric: fabric, TP: model.DefaultTCPTransport(),
	})
	link := netsim.NewLoopLink(e, model.Loopback())
	srv.Serve(link.B)
	region, _ := fabric.RegionFor(core.DesignSHMZeroCopy, "h", "h", 1<<20, 128<<10, 16)

	fails, oks := 0, 0
	e.Go("app", func(p *sim.Proc) {
		c, err := core.Connect(p, link.A, core.ClientConfig{
			ConnOptions: session.ConnOptions{NQN: "nqn.flaky", QueueDepth: 8},
			Design:      core.DesignSHMZeroCopy, Region: region, TP: model.DefaultTCPTransport(),
		})
		if err != nil {
			t.Fatal(err)
		}
		for i := 0; i < 25; i++ {
			res := transport.Submit(p, c, &transport.IO{Write: i%2 == 0, Offset: int64(i) * 4096, Size: 4096}).Wait(p)
			switch res.Status {
			case nvme.StatusSuccess:
				oks++
			case nvme.StatusInternalError:
				fails++
			default:
				t.Errorf("unexpected status %v", res.Status)
			}
		}
		c.Close()
		c.WaitClosed(p)
	})
	if err := e.Run(); err != nil {
		t.Fatal(err)
	}
	if fails != 5 || oks != 20 {
		t.Fatalf("fails=%d oks=%d, want 5/20", fails, oks)
	}
	// No leaked shared-memory slots after the failures.
	if region.Busy(0) != 0 || region.Busy(1) != 0 {
		t.Fatal("slots leaked after device failures")
	}
}

func TestCrossFabricDataConsistency(t *testing.T) {
	// Data written over NVMe/TCP must read back identically over the
	// adaptive fabric: both transports front the same namespace.
	e := sim.NewEngine(2)
	tgt := target.New(e, model.DefaultHost())
	sub, _ := tgt.AddSubsystem("nqn.shared")
	ssdParams := model.DefaultSSD()
	ssdParams.JitterFrac = 0
	ssdParams.StallProb = 0
	sub.AddNamespace(1, bdev.NewSimSSD(e, "d", 1<<30, ssdParams, true, transport.BlockSize))

	tcpLink := netsim.NewLoopLink(e, model.TCP25G())
	tcpOpts := dial.Options{Kind: dial.TCP25G, ConnOptions: session.ConnOptions{NQN: "nqn.shared", QueueDepth: 8}, TP: model.DefaultTCPTransport()}
	dial.Serve(e, tgt, tcpLink.B, tcpOpts)

	fabric := core.NewFabric(e, model.DefaultSHM())
	oafSrv := core.NewServer(e, tgt, core.ServerConfig{
		ServeOptions: session.ServeOptions{NQN: "nqn.shared"},
		Design:       core.DesignSHMZeroCopy, Fabric: fabric, TP: model.DefaultTCPTransport(),
	})
	oafLink := netsim.NewLoopLink(e, model.Loopback())
	oafSrv.Serve(oafLink.B)
	region, _ := fabric.RegionFor(core.DesignSHMZeroCopy, "h", "h", 1<<20, 128<<10, 16)

	payload := bytes.Repeat([]byte{0xE7, 0x11}, 64<<10)
	e.Go("app", func(p *sim.Proc) {
		q, err := dial.Connect(p, tcpLink.A, tcpOpts)
		if err != nil {
			t.Fatal(err)
		}
		tc := q.(*core.Client)
		oc, err := core.Connect(p, oafLink.A, core.ClientConfig{
			ConnOptions: session.ConnOptions{NQN: "nqn.shared", QueueDepth: 8},
			Design:      core.DesignSHMZeroCopy, Region: region, TP: model.DefaultTCPTransport(),
		})
		if err != nil {
			t.Fatal(err)
		}
		if res := transport.Submit(p, tc, &transport.IO{Write: true, Offset: 65536, Size: len(payload), Data: payload}).Wait(p); res.Err() != nil {
			t.Fatal(res.Err())
		}
		into := make([]byte, len(payload))
		res := transport.Submit(p, oc, &transport.IO{Offset: 65536, Size: len(payload), Data: into}).Wait(p)
		if res.Err() != nil {
			t.Fatal(res.Err())
		}
		if !bytes.Equal(res.Data, payload) {
			t.Error("data written over TCP not visible over the adaptive fabric")
		}
		tc.Close()
		oc.Close()
		tc.WaitClosed(p)
		oc.WaitClosed(p)
	})
	if err := e.Run(); err != nil {
		t.Fatal(err)
	}
}

func TestEightTenantsConcurrently(t *testing.T) {
	// Eight tenants with private regions and SSDs run mixed workloads
	// concurrently; everything completes and each tenant's payload stays
	// isolated in its own namespace.
	e := sim.NewEngine(3)
	fabric := core.NewFabric(e, model.DefaultSHM())
	const tenants = 8
	type tenant struct {
		client *core.Client
		link   *netsim.Link
	}
	links := make([]*netsim.Link, tenants)
	var devices []*bdev.SSDBdev
	for i := 0; i < tenants; i++ {
		tgt := target.New(e, model.DefaultHost())
		nqn := fmt.Sprintf("nqn.tenant%d", i)
		sub, _ := tgt.AddSubsystem(nqn)
		ssdParams := model.DefaultSSD()
		ssdParams.JitterFrac = 0
		ssdParams.StallProb = 0
		bd := bdev.NewSimSSD(e, nqn, 256<<20, ssdParams, true, transport.BlockSize)
		sub.AddNamespace(1, bd)
		devices = append(devices, bd)
		srv := core.NewServer(e, tgt, core.ServerConfig{
			ServeOptions: session.ServeOptions{NQN: nqn},
			Design:       core.DesignSHMZeroCopy, Fabric: fabric, TP: model.DefaultTCPTransport(),
		})
		links[i] = netsim.NewLoopLink(e, model.Loopback())
		srv.Serve(links[i].B)
	}
	wg := sim.NewWaitGroup(e)
	wg.Add(tenants)
	for i := 0; i < tenants; i++ {
		i := i
		e.Go(fmt.Sprintf("tenant-%d", i), func(p *sim.Proc) {
			defer wg.Done()
			region, _ := fabric.RegionFor(core.DesignSHMZeroCopy, "h", "h", 64<<10, 128<<10, 8)
			c, err := core.Connect(p, links[i].A, core.ClientConfig{
				ConnOptions: session.ConnOptions{NQN: fmt.Sprintf("nqn.tenant%d", i), QueueDepth: 8},
				Design:      core.DesignSHMZeroCopy, Region: region, TP: model.DefaultTCPTransport(),
			})
			if err != nil {
				t.Error(err)
				return
			}
			pattern := bytes.Repeat([]byte{byte(i + 1)}, 64<<10)
			for j := 0; j < 8; j++ {
				if res := transport.Submit(p, c, &transport.IO{Write: true, Offset: int64(j) * (64 << 10), Size: len(pattern), Data: pattern}).Wait(p); res.Err() != nil {
					t.Error(res.Err())
				}
			}
			into := make([]byte, 64<<10)
			res := transport.Submit(p, c, &transport.IO{Offset: 0, Size: len(into), Data: into}).Wait(p)
			if res.Err() != nil {
				t.Error(res.Err())
			} else {
				for _, v := range res.Data {
					if v != byte(i+1) {
						t.Errorf("tenant %d read cross-contaminated data %d", i, v)
						break
					}
				}
			}
			c.Close()
			c.WaitClosed(p)
		})
	}
	if err := e.Run(); err != nil {
		t.Fatal(err)
	}
}

func TestDiscoveryThenProbeFlow(t *testing.T) {
	// The full bring-up a real host performs: connect, fetch the
	// discovery log, probe the controller's geometry, then do I/O.
	e := sim.NewEngine(4)
	tgt := target.New(e, model.DefaultHost())
	sub, _ := tgt.AddSubsystem("nqn.prod")
	ssdParams := model.DefaultSSD()
	ssdParams.JitterFrac = 0
	ssdParams.StallProb = 0
	sub.AddNamespace(1, bdev.NewSimSSD(e, "d", 1<<30, ssdParams, false, transport.BlockSize))
	link := netsim.NewLoopLink(e, model.TCP25G())
	o := dial.Options{Kind: dial.TCP25G, ConnOptions: session.ConnOptions{NQN: "nqn.prod", QueueDepth: 8}, TP: model.DefaultTCPTransport()}
	dial.Serve(e, tgt, link.B, o)
	e.Go("app", func(p *sim.Proc) {
		c, err := dial.Connect(p, link.A, o)
		if err != nil {
			t.Fatal(err)
		}
		entries, err := host.Discover(p, c)
		if err != nil {
			t.Fatal(err)
		}
		if len(entries) != 1 || entries[0].SubNQN != "nqn.prod" {
			t.Fatalf("discovery: %+v", entries)
		}
		id, err := host.Identify(p, c)
		if err != nil {
			t.Fatal(err)
		}
		if id.CapacityBytes() != 1<<30 {
			t.Fatalf("capacity %d", id.CapacityBytes())
		}
		res := transport.Submit(p, c, &transport.IO{Offset: 0, Size: 4096}).Wait(p)
		if res.Err() != nil {
			t.Fatal(res.Err())
		}
		c.Close()
	})
	if err := e.Run(); err != nil {
		t.Fatal(err)
	}
}
