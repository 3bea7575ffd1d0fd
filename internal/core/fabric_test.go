package core

import (
	"errors"
	"testing"

	"nvmeoaf/internal/model"
	"nvmeoaf/internal/shm"
	"nvmeoaf/internal/sim"
	"nvmeoaf/internal/telemetry"
	"nvmeoaf/internal/transport"
)

// TestProvisionBadGeometryReturnsError pins the bugfix: an invalid slot
// geometry used to panic inside shm.NewRegion; it must surface as an
// error the caller can degrade from.
func TestProvisionBadGeometryReturnsError(t *testing.T) {
	e := sim.NewEngine(1)
	f := NewFabric(e, model.DefaultSHM())
	tel := telemetry.New()
	f.AttachTelemetry(tel)
	r, err := f.Provision("h", "h", 0, 4, shm.ModeLockFree)
	if err == nil || r != nil {
		t.Fatalf("bad geometry: region=%v err=%v", r, err)
	}
	if tel.Counter(telemetry.CtrProvisionFailed) != 1 {
		t.Fatalf("provision failure not counted: %d", tel.Counter(telemetry.CtrProvisionFailed))
	}
	// RegionFor propagates the same failure for SHM designs.
	if _, err := f.RegionFor(DesignSHMZeroCopy, "h", "h", 0, 0, 16); err == nil {
		t.Fatal("RegionFor must propagate the geometry error")
	}
}

// TestProvisionFailureDegradesToTCP drives the full connect path with the
// resource manager refusing the IVSHMEM hotplug: the pair must come up on
// the TCP data path with working I/O instead of crashing.
func TestProvisionFailureDegradesToTCP(t *testing.T) {
	r := newRig(t, DesignSHMZeroCopy, true, nil)
	tel := telemetry.New()
	r.fabric.AttachTelemetry(tel)
	r.fabric.FailProvisions(errors.New("hotplug refused"))
	region, err := r.fabric.RegionFor(DesignSHMZeroCopy, "host0", "host0", 1<<20, 128<<10, 32)
	if err == nil || region != nil {
		t.Fatalf("injected failure: region=%v err=%v", region, err)
	}
	r.region = nil // what a caller does on error: degrade to TCP
	r.e.Go("app", func(p *sim.Proc) {
		c := r.connect(t, p, DesignSHMZeroCopy, 8)
		if c.SHMEnabled() {
			t.Error("failed provision must not negotiate shared memory")
		}
		payload := make([]byte, 64<<10)
		for i := range payload {
			payload[i] = byte(i)
		}
		res := transport.Submit(p, c, &transport.IO{Write: true, Size: len(payload), Data: payload}).Wait(p)
		if res.Err() != nil {
			t.Errorf("degraded write: %v", res.Err())
		}
		back := make([]byte, len(payload))
		res = transport.Submit(p, c, &transport.IO{Size: len(back), Data: back}).Wait(p)
		if res.Err() != nil {
			t.Errorf("degraded read: %v", res.Err())
		}
		for i := range back {
			if back[i] != payload[i] {
				t.Fatalf("readback mismatch at %d", i)
			}
		}
		c.Close()
		c.WaitClosed(p)
	})
	if err := r.e.Run(); err != nil {
		t.Fatal(err)
	}
	if tel.Counter(telemetry.CtrProvisionFailed) != 1 {
		t.Fatalf("provision failure not counted: %d", tel.Counter(telemetry.CtrProvisionFailed))
	}
	// Recovery: once the injection clears, provisioning works again.
	r.fabric.FailProvisions(nil)
	if reg, err := r.fabric.RegionFor(DesignSHMZeroCopy, "host0", "host0", 1<<20, 128<<10, 32); err != nil || reg == nil {
		t.Fatalf("provision after recovery: region=%v err=%v", reg, err)
	}
}
