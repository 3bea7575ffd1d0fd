package oaf

import (
	"strings"
	"testing"

	"nvmeoaf/internal/telemetry"
)

// oneHost is a cluster with one host running one target.
func oneHost(t *testing.T) *Cluster {
	t.Helper()
	c := NewCluster(Config{Seed: 1})
	if err := c.AddHost("hostA"); err != nil {
		t.Fatal(err)
	}
	if err := c.AddTarget("hostA", "nqn.demo", TargetConfig{SSDCapacity: 64 << 20}); err != nil {
		t.Fatal(err)
	}
	return c
}

// TestConnectUnknownFabricFails: a fabric name the fabric table does not
// hold is an error Connect returns, neither a silent fallback to another
// fabric nor a panic in the simulation.
func TestConnectUnknownFabricFails(t *testing.T) {
	c := oneHost(t)
	var connErr error
	err := c.Run(func(ctx *Ctx) error {
		q, err := ctx.Connect("nqn.demo", ConnectOptions{Fabric: "tcp-40g"})
		if err == nil {
			q.Close()
		}
		connErr = err
		return nil
	})
	if err != nil {
		t.Fatal(err)
	}
	if connErr == nil || !strings.Contains(connErr.Error(), `unknown fabric "tcp-40g"`) {
		t.Fatalf("Connect over an unknown fabric returned %v, want an unknown-fabric error", connErr)
	}
}

// TestZeroOptionsNegotiateZeroCopy: the zero ConnectOptions of a
// co-located pair is the adaptive fabric with the paper's headline
// design, shared memory with zero copy.
func TestZeroOptionsNegotiateZeroCopy(t *testing.T) {
	c := oneHost(t)
	err := c.Run(func(ctx *Ctx) error {
		q, err := ctx.Connect("nqn.demo", ConnectOptions{})
		if err != nil {
			return err
		}
		defer q.Close()
		if !q.SharedMemory {
			t.Error("zero options did not negotiate shared memory")
		}
		_, err = q.WriteModeled(0, 4096)
		return err
	})
	if err != nil {
		t.Fatal(err)
	}
	var paths []telemetry.Event
	for _, ev := range c.w.Tel.Events() {
		if ev.Kind == telemetry.EvPathSelected {
			paths = append(paths, ev)
		}
	}
	if len(paths) != 1 || paths[0].Path != "shm" || paths[0].Note != DesignZeroCopy.String() {
		t.Fatalf("path-selected events %+v, want one shm/%s", paths, DesignZeroCopy)
	}
}
