package oaf_test

import (
	"bytes"
	"strings"
	"testing"
	"time"

	"nvmeoaf/oaf"
)

// cluster builds a one-host cluster with one retaining target.
func cluster(t *testing.T) *oaf.Cluster {
	t.Helper()
	c := oaf.NewCluster(oaf.Config{Seed: 1})
	if err := c.AddHost("hostA"); err != nil {
		t.Fatal(err)
	}
	if err := c.AddTarget("hostA", "nqn.demo", oaf.TargetConfig{SSDCapacity: 256 << 20, RetainData: true}); err != nil {
		t.Fatal(err)
	}
	return c
}

func TestQuickstartFlow(t *testing.T) {
	c := cluster(t)
	err := c.Run(func(ctx *oaf.Ctx) error {
		q, err := ctx.Connect("nqn.demo", oaf.ConnectOptions{})
		if err != nil {
			return err
		}
		defer q.Close()
		if !q.SharedMemory {
			t.Error("co-located connection should negotiate shared memory")
		}
		payload := bytes.Repeat([]byte{7}, 8192)
		if _, err := q.Write(0, payload); err != nil {
			return err
		}
		res, err := q.Read(0, 8192)
		if err != nil {
			return err
		}
		if !bytes.Equal(res.Data, payload) {
			t.Error("payload mismatch")
		}
		if res.Latency <= 0 || res.DeviceTime <= 0 {
			t.Errorf("timing: %+v", res)
		}
		return nil
	})
	if err != nil {
		t.Fatal(err)
	}
	if c.Now() <= 0 {
		t.Fatal("virtual time did not advance")
	}
}

// TestDefaultHostIsFirstAdded pins where Run's application runs: on the
// first host added, so a connection to a target there is co-located on
// every run, not only when map iteration happens to pick that host.
func TestDefaultHostIsFirstAdded(t *testing.T) {
	for run := 0; run < 64; run++ {
		c := oaf.NewCluster(oaf.Config{Seed: 1})
		for _, h := range []string{"hostA", "hostB"} {
			if err := c.AddHost(h); err != nil {
				t.Fatal(err)
			}
		}
		if err := c.AddTarget("hostA", "nqn.demo", oaf.TargetConfig{SSDCapacity: 64 << 20}); err != nil {
			t.Fatal(err)
		}
		err := c.Run(func(ctx *oaf.Ctx) error {
			q, err := ctx.Connect("nqn.demo", oaf.ConnectOptions{})
			if err != nil {
				return err
			}
			defer q.Close()
			if !q.SharedMemory {
				t.Errorf("run %d: the application ran off hostA: no shared memory", run)
			}
			return nil
		})
		if err != nil {
			t.Fatal(err)
		}
	}
}

func TestRemoteHostFallsBackToTCP(t *testing.T) {
	c := cluster(t)
	if err := c.AddHost("hostB"); err != nil {
		t.Fatal(err)
	}
	err := c.Run(func(ctx *oaf.Ctx) error {
		q, err := ctx.On("hostB").Connect("nqn.demo", oaf.ConnectOptions{})
		if err != nil {
			return err
		}
		defer q.Close()
		if q.SharedMemory {
			t.Error("remote connection must not use shared memory")
		}
		_, err = q.WriteModeled(0, 128<<10)
		return err
	})
	if err != nil {
		t.Fatal(err)
	}
}

func TestAllFabricsConnect(t *testing.T) {
	for _, f := range []oaf.Fabric{
		oaf.FabricAdaptive, oaf.FabricAdaptiveRDMACtl, oaf.FabricTCP10G, oaf.FabricTCP25G,
		oaf.FabricTCP100G, oaf.FabricRDMA56G, oaf.FabricRoCE100G,
	} {
		c := cluster(t)
		err := c.Run(func(ctx *oaf.Ctx) error {
			q, err := ctx.Connect("nqn.demo", oaf.ConnectOptions{Fabric: f, QueueDepth: 8})
			if err != nil {
				return err
			}
			defer q.Close()
			_, err = q.ReadModeled(0, 64<<10)
			return err
		})
		if err != nil {
			t.Fatalf("fabric %v: %v", f, err)
		}
	}
}

func TestAsyncPipelining(t *testing.T) {
	c := cluster(t)
	err := c.Run(func(ctx *oaf.Ctx) error {
		q, err := ctx.Connect("nqn.demo", oaf.ConnectOptions{QueueDepth: 16})
		if err != nil {
			return err
		}
		defer q.Close()
		var asyncs []*oaf.Async
		for i := 0; i < 32; i++ {
			asyncs = append(asyncs, q.ReadAsync(int64(i)*4096, 4096))
		}
		for _, a := range asyncs {
			if _, err := q.Wait(a); err != nil {
				return err
			}
		}
		return nil
	})
	if err != nil {
		t.Fatal(err)
	}
}

func TestConcurrentTasks(t *testing.T) {
	c := cluster(t)
	err := c.Run(func(ctx *oaf.Ctx) error {
		t1 := ctx.Go("writer", func(ctx *oaf.Ctx) error {
			q, err := ctx.Connect("nqn.demo", oaf.ConnectOptions{QueueDepth: 8})
			if err != nil {
				return err
			}
			defer q.Close()
			for i := 0; i < 10; i++ {
				if _, err := q.WriteModeled(int64(i)*(64<<10), 64<<10); err != nil {
					return err
				}
			}
			return nil
		})
		ctx.Sleep(time.Millisecond)
		return t1.Wait(ctx)
	})
	if err != nil {
		t.Fatal(err)
	}
}

// A task's Ctx outlives its function only as a dangling handle: its process
// is recycled when the function returns, so blocking through it must fail
// the run instead of parking whichever process owns it now.
func TestStaleCtxPanics(t *testing.T) {
	c := cluster(t)
	err := c.Run(func(ctx *oaf.Ctx) error {
		var stale *oaf.Ctx
		task := ctx.Go("short", func(ctx *oaf.Ctx) error {
			stale = ctx
			return nil
		})
		if err := task.Wait(ctx); err != nil {
			return err
		}
		stale.Sleep(time.Microsecond)
		return nil
	})
	if err == nil || !strings.Contains(err.Error(), "outside its own function") {
		t.Fatalf("Run = %v, want the stale Ctx's Sleep to panic", err)
	}
}

func TestErrorsSurface(t *testing.T) {
	c := cluster(t)
	if err := c.AddHost("hostA"); err == nil {
		t.Fatal("duplicate host accepted")
	}
	if err := c.AddTarget("nohost", "x", oaf.TargetConfig{}); err == nil {
		t.Fatal("unknown host accepted")
	}
	if err := c.AddTarget("hostA", "nqn.demo", oaf.TargetConfig{}); err == nil {
		t.Fatal("duplicate target accepted")
	}
	err := c.Run(func(ctx *oaf.Ctx) error {
		if _, err := ctx.Connect("nqn.missing", oaf.ConnectOptions{}); err == nil {
			t.Error("unknown target accepted")
		}
		q, err := ctx.Connect("nqn.demo", oaf.ConnectOptions{})
		if err != nil {
			return err
		}
		defer q.Close()
		if _, err := q.ReadModeled(1<<40, 4096); err == nil {
			t.Error("out-of-range read accepted")
		}
		return nil
	})
	if err != nil {
		t.Fatal(err)
	}
}

func TestDesignsSelectable(t *testing.T) {
	for _, d := range []oaf.Design{oaf.DesignBaseline, oaf.DesignLockFree, oaf.DesignFlowCtl, oaf.DesignZeroCopy} {
		c := cluster(t)
		err := c.Run(func(ctx *oaf.Ctx) error {
			q, err := ctx.Connect("nqn.demo", oaf.ConnectOptions{Design: d, QueueDepth: 8})
			if err != nil {
				return err
			}
			defer q.Close()
			if !q.SharedMemory {
				t.Errorf("design %v: expected shared memory", d)
			}
			if _, err := q.WriteModeled(0, 256<<10); err != nil {
				return err
			}
			_, err = q.ReadModeled(0, 256<<10)
			return err
		})
		if err != nil {
			t.Fatalf("design %v: %v", d, err)
		}
	}
}

func TestRunUntilBoundsVirtualTime(t *testing.T) {
	c := cluster(t)
	err := c.RunUntil(5*time.Millisecond, func(ctx *oaf.Ctx) error {
		ctx.Sleep(time.Hour) // would run forever without the bound
		return nil
	})
	if err != nil {
		t.Fatal(err)
	}
	if c.Now() != 5*time.Millisecond {
		t.Fatalf("clock %v, want 5ms", c.Now())
	}
}

func TestRunWorkloadSummary(t *testing.T) {
	c := cluster(t)
	err := c.Run(func(ctx *oaf.Ctx) error {
		q, err := ctx.Connect("nqn.demo", oaf.ConnectOptions{QueueDepth: 16})
		if err != nil {
			return err
		}
		defer q.Close()
		res, err := ctx.RunWorkload(q, oaf.Workload{
			Sequential: true, ReadPercent: 100, IOSize: 128 << 10,
			QueueDepth: 16, Duration: 50 * time.Millisecond,
		})
		if err != nil {
			return err
		}
		if res.GBps <= 0 || res.IOPS <= 0 || res.AvgLatency <= 0 {
			t.Errorf("empty result: %+v", res)
		}
		if res.P9999 < res.P99 {
			t.Error("percentiles inverted")
		}
		if len(res.CDF) == 0 {
			t.Error("missing CDF")
		}
		if res.DeviceTime+res.FabricTime+res.OtherTime > res.AvgLatency+time.Microsecond {
			t.Error("breakdown exceeds total")
		}
		return nil
	})
	if err != nil {
		t.Fatal(err)
	}
}

func TestQueueDiscover(t *testing.T) {
	c := cluster(t)
	err := c.Run(func(ctx *oaf.Ctx) error {
		q, err := ctx.Connect("nqn.demo", oaf.ConnectOptions{QueueDepth: 4})
		if err != nil {
			return err
		}
		defer q.Close()
		subs, err := q.Discover()
		if err != nil {
			return err
		}
		if len(subs) != 1 || subs[0].NQN != "nqn.demo" || subs[0].Transport != "adaptive" {
			t.Errorf("discovery: %+v", subs)
		}
		return nil
	})
	if err != nil {
		t.Fatal(err)
	}
}

func TestEncryptedSHMOption(t *testing.T) {
	c := cluster(t)
	err := c.Run(func(ctx *oaf.Ctx) error {
		q, err := ctx.Connect("nqn.demo", oaf.ConnectOptions{EncryptSHM: true, QueueDepth: 8})
		if err != nil {
			return err
		}
		defer q.Close()
		if !q.SharedMemory {
			t.Error("expected shared memory")
		}
		payload := bytes.Repeat([]byte{0x3C}, 16384)
		if _, err := q.Write(0, payload); err != nil {
			return err
		}
		res, err := q.Read(0, len(payload))
		if err != nil {
			return err
		}
		if !bytes.Equal(res.Data, payload) {
			t.Error("payload corrupted through encrypted channel")
		}
		return nil
	})
	if err != nil {
		t.Fatal(err)
	}
}
