package oaf

import "nvmeoaf/internal/qos"

// SLO classifies a tenant's service objective, re-exported from the QoS
// layer. The tier steers the receive-path knobs of every connection the
// tenant opens (DESIGN.md §5l): latency-sensitive tenants busy-poll with
// shallow trains, throughput and batch tenants run interrupt-mode with
// deep coalescing.
type SLO = qos.SLO

// SLO tiers.
const (
	// SLONone applies no receive-path steering (connection options rule).
	SLONone = qos.SLONone
	// SLOLatencySensitive favors tail latency: busy-poll, batch=1.
	SLOLatencySensitive = qos.LatencySensitive
	// SLOThroughput favors bandwidth: interrupt mode, deep trains.
	SLOThroughput = qos.Throughput
	// SLOBatch is background/bulk work: interrupt mode, deepest trains.
	SLOBatch = qos.Batch
)

// TenantConfig registers one tenant with the cluster's QoS layer.
type TenantConfig struct {
	// Name identifies the tenant on every enforcement point (no commas).
	Name string
	// SLO steers receive-path tuning for the tenant's connections.
	SLO SLO
	// RateMBps is the token-refill rate in MiB/s at EACH enforcement
	// point (0 = unlimited: the tenant is registered for attribution and
	// may lend its burst, but is never throttled).
	RateMBps int
	// BurstBytes bounds the token bucket (default max(256 KiB, rate/100)).
	BurstBytes int64
}

// AddTenant registers a tenant. Tenants must be registered before the
// connections that will carry their traffic are opened; a cluster with
// no tenants registered runs the exact untenanted wire protocol.
func (c *Cluster) AddTenant(tc TenantConfig) error {
	if c.qosReg == nil {
		c.qosReg = qos.NewRegistry()
	}
	return c.qosReg.Add(qos.Spec{
		Name:       tc.Name,
		SLO:        tc.SLO,
		RateBps:    int64(tc.RateMBps) << 20,
		BurstBytes: tc.BurstBytes,
	})
}

// TenantNames lists the registered tenants in registration order.
func (c *Cluster) TenantNames() []string { return c.qosReg.Names() }

// QoSStats merges per-tenant token accounting (taken/borrowed/lent/
// throttles) across every enforcement point, sorted by tenant name.
func (c *Cluster) QoSStats() []qos.TenantStats { return c.qosReg.Stats() }

// CheckQoS verifies the token-conservation invariant on every
// enforcement point: borrowing moves tokens, it never mints them. A
// non-nil error means the ledger leaked (a bug, not a tuning problem).
func (c *Cluster) CheckQoS() error { return c.qosReg.Check() }
