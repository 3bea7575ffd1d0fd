package oaf

import (
	"fmt"
	"testing"
	"time"
)

// TestAttachTunerClimbsLiveQueue: an application connects with the worst
// batching configuration, attaches the tuner, and drives a steady 4K
// random-read load; the tuner must move knobs, improve the completion
// rate, and never disturb the connection.
func TestAttachTunerClimbsLiveQueue(t *testing.T) {
	c := NewCluster(Config{Seed: 5})
	if err := c.AddHost("hostA"); err != nil {
		t.Fatal(err)
	}
	if err := c.AddHost("hostB"); err != nil {
		t.Fatal(err)
	}
	if err := c.AddTarget("hostB", "nqn.tuned", TargetConfig{SSDCapacity: 1 << 30}); err != nil {
		t.Fatal(err)
	}
	var rep struct {
		epochs, accepted int
		finalBatch       int64
		reconnects       int64
	}
	err := c.Run(func(ctx *Ctx) error {
		q, err := ctx.Connect("nqn.tuned", ConnectOptions{
			Fabric: FabricTCP25G, QueueDepth: 64, Batch: 1,
		})
		if err != nil {
			return err
		}
		defer q.Close()
		tn, err := ctx.Cluster().AttachTuner(TunerOptions{Period: 20 * time.Millisecond})
		if err != nil {
			return err
		}
		deadline := 600 * time.Millisecond
		for ctx.Now() < deadline {
			batch := make([]*Async, 0, 32)
			for i := 0; i < 32; i++ {
				batch = append(batch, q.ReadAsyncModeled(int64(i)*4096, 4096))
			}
			for _, a := range batch {
				if _, err := q.Wait(a); err != nil {
					return err
				}
			}
		}
		r := tn.Report()
		rep.epochs = r.Epochs
		rep.accepted = r.Accepted
		rep.finalBatch = r.Final["q0/batch"]
		rep.reconnects = q.Snapshot().Reconnects
		return nil
	})
	if err != nil {
		t.Fatal(err)
	}
	if rep.epochs == 0 || rep.accepted == 0 {
		t.Fatalf("tuner inert: %+v", rep)
	}
	if rep.finalBatch <= 1 {
		t.Fatalf("batch knob never climbed past 1: %+v", rep)
	}
	if rep.reconnects != 0 {
		t.Fatalf("tuning disturbed the connection: %d reconnects", rep.reconnects)
	}
}

// TestAttachTunerNeedsQueues pins the attach-after-connect contract.
func TestAttachTunerNeedsQueues(t *testing.T) {
	c := NewCluster(Config{Seed: 1})
	if _, err := c.AttachTuner(TunerOptions{}); err == nil {
		t.Fatal("AttachTuner with no queues must error")
	}
}

// TestClusterSnapshotDeltas: two public snapshots must feed the
// telemetry delta helper with a meaningful interval.
func TestClusterSnapshotDeltas(t *testing.T) {
	c := NewCluster(Config{Seed: 2})
	if err := c.AddHost("h"); err != nil {
		t.Fatal(err)
	}
	if err := c.AddTarget("h", "nqn.d", TargetConfig{}); err != nil {
		t.Fatal(err)
	}
	err := c.Run(func(ctx *Ctx) error {
		q, err := ctx.Connect("nqn.d", ConnectOptions{})
		if err != nil {
			return err
		}
		defer q.Close()
		a := ctx.Cluster().Snapshot()
		for i := 0; i < 50; i++ {
			if _, err := q.ReadModeled(int64(i)*4096, 4096); err != nil {
				return err
			}
		}
		b := ctx.Cluster().Snapshot()
		d := b.Telemetry.DeltaSince(a.Telemetry)
		if d.IntervalNs <= 0 {
			return fmt.Errorf("zero delta interval")
		}
		if d.Counter("client.completions") != 50 {
			return fmt.Errorf("completions delta = %d, want 50", d.Counter("client.completions"))
		}
		if d.Rate("client.completions") <= 0 {
			return fmt.Errorf("zero completion rate")
		}
		return nil
	})
	if err != nil {
		t.Fatal(err)
	}
}

// TestCloseReleasesWorld: after Run the cluster's daemons (connection
// handlers, device channels, the tuner's loop) are still parked; Close
// unwinds every one of them, so a dropped cluster pins nothing.
func TestCloseReleasesWorld(t *testing.T) {
	c := NewCluster(Config{Seed: 3})
	if err := c.AddHost("h"); err != nil {
		t.Fatal(err)
	}
	if err := c.AddTarget("h", "nqn.close", TargetConfig{}); err != nil {
		t.Fatal(err)
	}
	err := c.Run(func(ctx *Ctx) error {
		q, err := ctx.Connect("nqn.close", ConnectOptions{Fabric: FabricTCP25G, QueueDepth: 8})
		if err != nil {
			return err
		}
		if _, err := ctx.Cluster().AttachTuner(TunerOptions{}); err != nil {
			return err
		}
		for i := 0; i < 16; i++ {
			if _, err := q.Wait(q.ReadAsyncModeled(int64(i)*4096, 4096)); err != nil {
				return err
			}
		}
		return nil
	})
	if err != nil {
		t.Fatal(err)
	}
	if c.w.Engine.Live() == 0 {
		t.Fatal("no process left parked after Run: nothing for Close to release")
	}
	c.Close()
	if n := c.w.Engine.Live(); n != 0 {
		t.Fatalf("%d processes still live after Close", n)
	}
}
