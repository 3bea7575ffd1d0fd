// Package host holds the admin flows an NVMe-oF host (initiator) runs
// over an established queue before doing I/O: fetching the discovery log
// and identifying the controller and its namespace. Spreading I/O across
// several queue pairs is transport.StripedQueue's job.
package host

import (
	"fmt"

	"nvmeoaf/internal/nvme"
	"nvmeoaf/internal/sim"
	"nvmeoaf/internal/transport"
)

// Discover fetches the discovery log through an established queue and
// returns the subsystems the target exposes.
func Discover(p *sim.Proc, q transport.Queue) ([]nvme.DiscoveryEntry, error) {
	buf := make([]byte, 64<<10)
	res := transport.Submit(p, q, &transport.IO{
		Admin: nvme.AdminGetLogPage, CDW10: nvme.LIDDiscovery, Data: buf, Size: len(buf),
	}).Wait(p)
	if err := res.Err(); err != nil {
		return nil, fmt.Errorf("host: discovery: %w", err)
	}
	return nvme.DecodeDiscoveryLog(res.Data)
}

// Identity is what the identify flow learns about a controller.
type Identity struct {
	// Info is the controller identify page.
	Info nvme.IdentifyController
	// NS is the namespace-1 identify page.
	NS nvme.IdentifyNamespace
}

// CapacityBytes returns the namespace capacity.
func (id Identity) CapacityBytes() int64 {
	return int64(id.NS.NSZE) * int64(id.NS.BlockSize)
}

// Identify runs the identify flow on q, as a host does during controller
// initialization, and validates namespace 1.
func Identify(p *sim.Proc, q transport.Queue) (Identity, error) {
	var id Identity
	page := func(cns, nsid uint32) (*transport.Result, error) {
		res := transport.Submit(p, q, &transport.IO{
			Admin: nvme.AdminIdentify, CDW10: cns, NSID: nsid, Data: make([]byte, 4096), Size: 4096,
		}).Wait(p)
		return res, res.Err()
	}
	res, err := page(nvme.CNSController, 0)
	if err != nil {
		return id, fmt.Errorf("host: identify controller: %w", err)
	}
	if id.Info, err = nvme.DecodeIdentifyController(res.Data); err != nil {
		return id, err
	}
	if res, err = page(nvme.CNSNamespace, 1); err != nil {
		return id, fmt.Errorf("host: identify namespace: %w", err)
	}
	if id.NS, err = nvme.DecodeIdentifyNamespace(res.Data); err != nil {
		return id, err
	}
	if id.NS.BlockSize == 0 || id.NS.NSZE == 0 {
		return id, fmt.Errorf("host: namespace not ready: %+v", id.NS)
	}
	return id, nil
}
