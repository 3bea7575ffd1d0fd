package oaf_test

import (
	"encoding/json"
	"testing"

	"nvmeoaf/oaf"
)

// TestClusterSnapshot drives I/O over the adaptive fabric and checks the
// observability layer end to end: queue counters, aggregated telemetry
// counters and latency histograms, pool accounting, and JSON export.
func TestClusterSnapshot(t *testing.T) {
	c := cluster(t)
	var qs oaf.QueueSnapshot
	err := c.Run(func(ctx *oaf.Ctx) error {
		q, err := ctx.Connect("nqn.demo", oaf.ConnectOptions{})
		if err != nil {
			return err
		}
		defer q.Close()
		for i := 0; i < 4; i++ {
			if _, err := q.Write(int64(i)*8192, make([]byte, 8192)); err != nil {
				return err
			}
		}
		if _, err := q.Read(0, 8192); err != nil {
			return err
		}
		qs = q.Snapshot()
		return nil
	})
	if err != nil {
		t.Fatal(err)
	}
	if qs.Path != "shm" {
		t.Errorf("co-located queue path = %q, want shm", qs.Path)
	}
	if qs.Completed < 5 {
		t.Errorf("queue completed = %d, want >= 5", qs.Completed)
	}

	snap := c.Snapshot()
	if snap.TimeNs <= 0 {
		t.Error("snapshot carries no virtual time")
	}
	if got := snap.Telemetry.Counters["client.completions"]; got < 5 {
		t.Errorf("client.completions = %d, want >= 5", got)
	}
	if got := snap.Telemetry.Counters["client.submits.shm"]; got < 5 {
		t.Errorf("client.submits.shm = %d, want >= 5", got)
	}
	wh, ok := snap.Telemetry.Histograms["latency.write_ns"]
	if !ok || wh.Count < 4 {
		t.Errorf("write latency histogram missing or short: %+v", wh)
	}
	if wh.P99 < wh.P50 || wh.P50 <= 0 {
		t.Errorf("write latency quantiles implausible: p50=%d p99=%d", wh.P50, wh.P99)
	}
	if len(snap.Queues) != 1 || snap.Queues[0] != qs {
		t.Errorf("cluster queues = %+v", snap.Queues)
	}
	if len(snap.Pools) == 0 {
		t.Error("no pool stats in snapshot")
	}
	// The path-selection decision must be in the trace.
	found := false
	for _, ev := range snap.Telemetry.Trace {
		if ev.Kind == "path_selected" {
			found = true
		}
	}
	if !found {
		t.Error("no path_selected event in trace")
	}

	raw, err := json.Marshal(snap)
	if err != nil {
		t.Fatal(err)
	}
	var back map[string]any
	if err := json.Unmarshal(raw, &back); err != nil {
		t.Fatalf("snapshot JSON does not round-trip: %v", err)
	}
	if _, ok := back["telemetry"]; !ok {
		t.Error("snapshot JSON missing telemetry")
	}
}

// TestSnapshotRemotePath checks that a remote connection reports the TCP
// path and lands the TCP-side counters.
func TestSnapshotRemotePath(t *testing.T) {
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
		if _, err := q.Write(0, make([]byte, 8192)); err != nil {
			return err
		}
		if q.Snapshot().Path != "tcp" {
			t.Errorf("remote queue path = %q, want tcp", q.Snapshot().Path)
		}
		return nil
	})
	if err != nil {
		t.Fatal(err)
	}
	snap := c.Snapshot()
	if got := snap.Telemetry.Counters["client.submits.tcp"]; got < 1 {
		t.Errorf("client.submits.tcp = %d, want >= 1", got)
	}
}

// TestRDMAQueueTakesBatchAndTelemetry pins that an rdma connection is
// opened like any other: ConnectOptions.Batch reaches its session engine
// and the engine reports into the cluster's sink (both were once dropped
// for this fabric only). 64 reads staged at QD 64 with Batch 16 must
// leave multi-entry doorbell trains in batch.submit_size.
func TestRDMAQueueTakesBatchAndTelemetry(t *testing.T) {
	c := cluster(t)
	err := c.Run(func(ctx *oaf.Ctx) error {
		q, err := ctx.Connect("nqn.demo", oaf.ConnectOptions{Fabric: oaf.FabricRDMA56G, QueueDepth: 64, Batch: 16})
		if err != nil {
			return err
		}
		defer q.Close()
		var inflight []*oaf.Async
		for i := 0; i < 64; i++ {
			inflight = append(inflight, q.ReadAsyncModeled(int64(i)*4096, 4096))
		}
		for _, a := range inflight {
			if _, err := q.Wait(a); err != nil {
				return err
			}
		}
		return nil
	})
	if err != nil {
		t.Fatal(err)
	}
	h, ok := c.Snapshot().Telemetry.Histograms["batch.submit_size"]
	if !ok || h.Mean <= 1 {
		t.Errorf("batch.submit_size = %+v (present=%v), want mean > 1 with Batch 16 at QD 64", h, ok)
	}
}
