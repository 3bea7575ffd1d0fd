package host

import (
	"testing"

	"nvmeoaf/internal/bdev"
	"nvmeoaf/internal/core"
	"nvmeoaf/internal/model"
	"nvmeoaf/internal/netsim"
	"nvmeoaf/internal/session"
	"nvmeoaf/internal/sim"
	"nvmeoaf/internal/target"
	"nvmeoaf/internal/transport"
)

const nqn = "nqn.host-test"

// rig builds a target and n adaptive-fabric queues to it.
func rig(t *testing.T, n int) (*sim.Engine, func(p *sim.Proc) []transport.Queue) {
	t.Helper()
	e := sim.NewEngine(3)
	tgt := target.New(e, model.DefaultHost())
	sub, err := tgt.AddSubsystem(nqn)
	if err != nil {
		t.Fatal(err)
	}
	ssdParams := model.DefaultSSD()
	ssdParams.JitterFrac = 0
	ssdParams.StallProb = 0
	if _, err := sub.AddNamespace(1, bdev.NewSimSSD(e, "d", 512<<20, ssdParams, false, transport.BlockSize)); err != nil {
		t.Fatal(err)
	}
	fabric := core.NewFabric(e, model.DefaultSHM())
	srv := core.NewServer(e, tgt, core.ServerConfig{
		ServeOptions: session.ServeOptions{NQN: nqn},
		Design:       core.DesignSHMZeroCopy, Fabric: fabric, TP: model.DefaultTCPTransport(),
	})
	links := make([]*netsim.Link, n)
	for i := range links {
		links[i] = netsim.NewLoopLink(e, model.Loopback())
		srv.Serve(links[i].B)
	}
	return e, func(p *sim.Proc) []transport.Queue {
		var qs []transport.Queue
		for i := range links {
			region, _ := fabric.RegionFor(core.DesignSHMZeroCopy, "h", "h", 1<<20, 128<<10, 32)
			c, err := core.Connect(p, links[i].A, core.ClientConfig{
				ConnOptions: session.ConnOptions{NQN: nqn, QueueDepth: 32},
				Design:      core.DesignSHMZeroCopy, Region: region, TP: model.DefaultTCPTransport(),
			})
			if err != nil {
				t.Fatal(err)
			}
			qs = append(qs, c)
		}
		return qs
	}
}

func TestIdentifyDiscoversGeometry(t *testing.T) {
	e, connect := rig(t, 1)
	e.Go("app", func(p *sim.Proc) {
		q := connect(p)[0]
		id, err := Identify(p, q)
		if err != nil {
			t.Fatal(err)
		}
		if id.CapacityBytes() != 512<<20 {
			t.Errorf("capacity %d", id.CapacityBytes())
		}
		if id.Info.MN == "" || id.Info.NN != 1 {
			t.Errorf("controller info: %+v", id.Info)
		}
		q.Close()
	})
	if err := e.Run(); err != nil {
		t.Fatal(err)
	}
}

func TestDiscoverListsSubsystems(t *testing.T) {
	e, connect := rig(t, 1)
	e.Go("app", func(p *sim.Proc) {
		qs := connect(p)
		entries, err := Discover(p, qs[0])
		if err != nil {
			t.Fatal(err)
		}
		if len(entries) != 1 || entries[0].SubNQN != nqn {
			t.Fatalf("discovery entries: %+v", entries)
		}
		if entries[0].TrType == 0 && entries[0].TrAddr == "" {
			t.Fatal("entry missing transport info")
		}
		qs[0].Close()
	})
	if err := e.Run(); err != nil {
		t.Fatal(err)
	}
}
