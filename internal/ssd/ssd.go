// Package ssd models an NVMe solid-state drive: a set of independent flash
// channels served from a shared dispatch queue, per-command service times
// with setup and streaming components, a write cache fast path, service
// jitter, and rare internal stalls (garbage collection) that contribute to
// tail latency.
//
// The model reproduces the device-side properties the paper's experiments
// depend on: bounded internal parallelism (Fig 14's queue-depth scaling),
// per-device bandwidth ceilings (Fig 2/11), fixed small-I/O costs (Fig 3's
// "I/O time"), and queueing delay under bursty large writes (Fig 17).
//
// Payload bytes are optionally retained in a sparse page store so that
// file-system and HDF5 experiments read back real data, while raw
// bandwidth experiments can skip retention to bound host memory.
package ssd

import (
	"fmt"
	"math/rand"
	"time"

	"nvmeoaf/internal/model"
	"nvmeoaf/internal/sim"
	"nvmeoaf/internal/stats"
)

// OpType identifies a device operation.
type OpType int

const (
	// OpRead reads Size bytes at Offset.
	OpRead OpType = iota
	// OpWrite writes Size bytes at Offset.
	OpWrite
	// OpFlush commits the write cache (modeled as a fixed-cost command).
	OpFlush
)

func (o OpType) String() string {
	switch o {
	case OpRead:
		return "read"
	case OpWrite:
		return "write"
	case OpFlush:
		return "flush"
	default:
		return fmt.Sprintf("op(%d)", int(o))
	}
}

// Request is one device command. Size must be positive for reads/writes
// regardless of whether Data is materialized.
type Request struct {
	Op     OpType
	Offset int64
	Size   int
	// Data is optional and, when set, must be Size bytes long. On a write
	// it is the payload: a retaining device copies it, so later reads see
	// it. On a read it is the caller-owned destination: a retaining device
	// overwrites all of it and returns it as Result.Data instead of
	// allocating; a device that does not retain data leaves it untouched.
	Data []byte
	// Tenant attributes the request to a named tenant; a write-back
	// cache with per-tenant dirty budgets partitions on it. Empty means
	// unattributed (shared budget only).
	Tenant string

	// done completes the request (see Arm); enqueued is when it entered
	// the device queue.
	done     sim.Future[Result]
	enqueued sim.Time
}

// Arm readies the request's own completion future on engine e and returns
// it. A device completes a request through it, so a caller that keeps its
// request storage (a target command slot) pays no allocation per command.
// The request must not be in flight: submit it again only once the future
// has resolved.
func (r *Request) Arm(e *sim.Engine) *sim.Future[Result] {
	r.done.Arm(e)
	return &r.done
}

// Result is the completion of a Request.
type Result struct {
	Err error
	// Data holds a read's payload when the device retains data (ranges
	// never written read as zeros): the request's Data when the caller
	// gave one, a fresh slice otherwise. Nil when the device does not
	// retain data, and for writes and flushes.
	Data []byte
}

const pageSize = 64 << 10

// Device is one simulated NVMe SSD.
type Device struct {
	Name     string
	Capacity int64

	e      *sim.Engine
	params model.SSDParams
	queue  *sim.Queue[*Request]
	rng    *rand.Rand
	retain bool
	pages  map[int64][]byte

	// Metrics.
	ReadOps, WriteOps     int64
	ReadBytes, WriteBytes int64
	ServiceHist           *stats.Histogram // device service time incl. queueing
	busy                  time.Duration    // summed channel busy time
}

// New creates a device with the given capacity and parameters and starts
// its channel servers on the engine. retainData controls whether write
// payloads are stored for later reads.
func New(e *sim.Engine, name string, capacity int64, params model.SSDParams, retainData bool) *Device {
	d := &Device{
		Name:        name,
		Capacity:    capacity,
		e:           e,
		params:      params,
		queue:       sim.NewQueue[*Request](e, 0),
		rng:         e.Rand("ssd/" + name),
		retain:      retainData,
		pages:       make(map[int64][]byte),
		ServiceHist: stats.NewHistogram(),
	}
	for i := 0; i < params.Channels; i++ {
		ch := i
		e.GoDaemon(fmt.Sprintf("ssd/%s/ch%d", name, ch), func(p *sim.Proc) { d.channelLoop(p) })
	}
	return d
}

// QueueDepth returns the number of commands waiting for a channel.
func (d *Device) QueueDepth() int { return d.queue.Len() }

// Utilization returns mean channel utilization in [0,1] over the elapsed
// virtual time.
func (d *Device) Utilization() float64 {
	elapsed := d.e.Now().Seconds() * float64(d.params.Channels)
	if elapsed <= 0 {
		return 0
	}
	return d.busy.Seconds() / elapsed
}

// Submit enqueues a command and returns its future (the request's own,
// see Request.Arm), resolved at completion. Validation errors resolve
// immediately.
func (d *Device) Submit(req *Request) *sim.Future[Result] {
	fut := req.Arm(d.e)
	if err := d.validate(req); err != nil {
		fut.Resolve(Result{Err: err})
		return fut
	}
	req.enqueued = d.e.Now()
	d.queue.TryPut(req)
	return fut
}

// Execute submits a command and blocks the calling process until it
// completes.
func (d *Device) Execute(p *sim.Proc, req *Request) Result {
	return d.Submit(req).Wait(p)
}

func (d *Device) validate(req *Request) error {
	switch req.Op {
	case OpFlush:
		return nil
	case OpRead, OpWrite:
		if req.Size <= 0 {
			return fmt.Errorf("ssd %s: %v of non-positive size %d", d.Name, req.Op, req.Size)
		}
		if req.Offset < 0 || req.Offset+int64(req.Size) > d.Capacity {
			return fmt.Errorf("ssd %s: %v [%d,%d) outside capacity %d",
				d.Name, req.Op, req.Offset, req.Offset+int64(req.Size), d.Capacity)
		}
		if req.Data != nil && len(req.Data) != req.Size {
			return fmt.Errorf("ssd %s: %v data length %d != size %d", d.Name, req.Op, len(req.Data), req.Size)
		}
		return nil
	default:
		return fmt.Errorf("ssd %s: unknown op %d", d.Name, int(req.Op))
	}
}

// channelLoop is one flash channel: it serves commands one at a time.
func (d *Device) channelLoop(p *sim.Proc) {
	for {
		req, ok := d.queue.Get(p)
		if !ok {
			return
		}
		svc := d.serviceTime(req)
		p.Sleep(svc)
		d.busy += svc
		// The request is its owner's again once complete resolves it.
		d.ServiceHist.RecordDuration(p.Now().Sub(req.enqueued))
		d.complete(req)
	}
}

// serviceTime computes the channel occupancy for one command.
func (d *Device) serviceTime(req *Request) time.Duration {
	var base time.Duration
	switch req.Op {
	case OpRead:
		base = d.params.ReadSetup +
			time.Duration(float64(req.Size)/d.params.ChannelReadBytesPerSec*1e9)
	case OpWrite:
		base = d.params.WriteSetup +
			time.Duration(float64(req.Size)/d.params.ChannelWriteBytesPerSec*1e9)
	case OpFlush:
		base = d.params.WriteSetup * 4
	}
	if j := d.params.JitterFrac; j > 0 {
		base = time.Duration(float64(base) * (1 - j + 2*j*d.rng.Float64()))
	}
	if d.params.StallProb > 0 && d.rng.Float64() < d.params.StallProb {
		base += time.Duration(float64(d.params.StallDuration) * (0.5 + d.rng.Float64()))
	}
	return base
}

func (d *Device) complete(req *Request) {
	res := Result{}
	switch req.Op {
	case OpRead:
		d.ReadOps++
		d.ReadBytes += int64(req.Size)
		if d.retain {
			dst := req.Data
			if dst == nil {
				dst = make([]byte, req.Size)
			}
			d.readPages(req.Offset, dst)
			res.Data = dst
		}
	case OpWrite:
		d.WriteOps++
		d.WriteBytes += int64(req.Size)
		if d.retain && req.Data != nil {
			d.writePages(req.Offset, req.Data)
		}
	}
	req.done.Resolve(res)
}

// writePages stores data at the byte offset in the sparse page map.
func (d *Device) writePages(off int64, data []byte) {
	for len(data) > 0 {
		pageNo := off / pageSize
		pageOff := int(off % pageSize)
		page, ok := d.pages[pageNo]
		if !ok {
			page = make([]byte, pageSize)
			d.pages[pageNo] = page
		}
		n := copy(page[pageOff:], data)
		data = data[n:]
		off += int64(n)
	}
}

// readPages fills dst with the bytes at the offset. Unwritten ranges are
// cleared, not skipped: dst may be a recycled buffer holding stale bytes.
func (d *Device) readPages(off int64, dst []byte) {
	for len(dst) > 0 {
		pageNo := off / pageSize
		pageOff := int(off % pageSize)
		n := pageSize - pageOff
		if n > len(dst) {
			n = len(dst)
		}
		if page, ok := d.pages[pageNo]; ok {
			copy(dst[:n], page[pageOff:pageOff+n])
		} else {
			clear(dst[:n])
		}
		dst = dst[n:]
		off += int64(n)
	}
}

// Close stops the channel servers once the queue drains.
func (d *Device) Close() { d.queue.Close() }
