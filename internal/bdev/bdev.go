// Package bdev provides the block-device abstraction between the NVMe-oF
// target's namespaces and the backing storage, mirroring SPDK's bdev
// layer. The primary implementation wraps the simulated NVMe SSD; a
// fault-injecting wrapper supports failure testing.
package bdev

import (
	"fmt"

	"nvmeoaf/internal/model"
	"nvmeoaf/internal/sim"
	"nvmeoaf/internal/ssd"
)

// Device is the target-side block device interface.
type Device interface {
	// Name identifies the device.
	Name() string
	// BlockSize returns the logical block size in bytes.
	BlockSize() int
	// Blocks returns the number of logical blocks.
	Blocks() int64
	// Submit issues a request and returns a future resolved on completion,
	// the request's own (ssd.Request.Arm) unless the device wraps it. The
	// caller owns req and may reuse it once that future has resolved.
	Submit(req *ssd.Request) *sim.Future[ssd.Result]
}

// SSDBdev adapts a simulated NVMe SSD to the bdev interface.
type SSDBdev struct {
	dev       *ssd.Device
	blockSize int
}

// NewSSD wraps an ssd.Device with the given logical block size.
func NewSSD(dev *ssd.Device, blockSize int) *SSDBdev {
	if blockSize <= 0 || dev.Capacity%int64(blockSize) != 0 {
		panic(fmt.Sprintf("bdev: capacity %d not a multiple of block size %d", dev.Capacity, blockSize))
	}
	return &SSDBdev{dev: dev, blockSize: blockSize}
}

// NewSimSSD creates a fresh simulated SSD and wraps it.
func NewSimSSD(e *sim.Engine, name string, capacity int64, params model.SSDParams, retainData bool, blockSize int) *SSDBdev {
	return NewSSD(ssd.New(e, name, capacity, params, retainData), blockSize)
}

// Name implements Device.
func (b *SSDBdev) Name() string { return b.dev.Name }

// BlockSize implements Device.
func (b *SSDBdev) BlockSize() int { return b.blockSize }

// Blocks implements Device.
func (b *SSDBdev) Blocks() int64 { return b.dev.Capacity / int64(b.blockSize) }

// Submit implements Device.
func (b *SSDBdev) Submit(req *ssd.Request) *sim.Future[ssd.Result] { return b.dev.Submit(req) }

// SSD exposes the underlying simulated device for metrics.
func (b *SSDBdev) SSD() *ssd.Device { return b.dev }

// FaultyBdev wraps a device and fails every Nth submission with the given
// error, for failure-injection tests.
type FaultyBdev struct {
	Device
	Every int
	Err   error
	e     *sim.Engine
	count int
}

// NewFaulty wraps dev so every n-th request fails with err.
func NewFaulty(e *sim.Engine, dev Device, n int, err error) *FaultyBdev {
	return &FaultyBdev{Device: dev, Every: n, Err: err, e: e}
}

// Submit implements Device with periodic injected failures.
func (f *FaultyBdev) Submit(req *ssd.Request) *sim.Future[ssd.Result] {
	f.count++
	if f.Every > 0 && f.count%f.Every == 0 {
		fut := req.Arm(f.e)
		fut.Resolve(ssd.Result{Err: f.Err})
		return fut
	}
	return f.Device.Submit(req)
}
