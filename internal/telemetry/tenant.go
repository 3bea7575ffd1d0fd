package telemetry

import (
	"time"

	"nvmeoaf/internal/stats"
)

// TenantCounter identifies one per-tenant counter. Tenant views are the
// multi-application face of the sink: the same fixed-enum, allocation-
// light discipline as the fabric-wide counters, but one array per tenant
// so the QoS layer and the reports can attribute traffic to whoever
// caused it.
type TenantCounter int

const (
	TCtrSubmits     TenantCounter = iota // I/O commands submitted
	TCtrCompletions                      // I/O commands completed
	TCtrBytes                            // payload bytes completed
	TCtrTokenWaits                       // host-side submissions parked awaiting tokens
	TCtrThrottled                        // target-side typed throttle rejections
	TCtrSheds                            // buffer-wait sheds charged to this tenant
	TCtrBorrowed                         // token bytes borrowed from the lending ledger
	TCtrLent                             // token bytes lent to the lending ledger

	numTenantCounters
)

var tenantCounterNames = [numTenantCounters]string{
	TCtrSubmits:     "tenant.submits",
	TCtrCompletions: "tenant.completions",
	TCtrBytes:       "tenant.bytes",
	TCtrTokenWaits:  "tenant.token_waits",
	TCtrThrottled:   "tenant.throttled",
	TCtrSheds:       "tenant.sheds",
	TCtrBorrowed:    "tenant.tokens_borrowed",
	TCtrLent:        "tenant.tokens_lent",
}

// String returns the exported metric name.
func (c TenantCounter) String() string {
	if c < 0 || c >= numTenantCounters {
		return "unknown"
	}
	return tenantCounterNames[c]
}

// TenantHist identifies one per-tenant distribution.
type TenantHist int

const (
	THistLatency   TenantHist = iota // completion latency, ns
	THistTokenWait                   // time parked awaiting tokens, ns

	numTenantHists
)

var tenantHistNames = [numTenantHists]string{
	THistLatency:   "tenant.latency_ns",
	THistTokenWait: "tenant.token_wait_ns",
}

// String returns the exported histogram name.
func (h TenantHist) String() string {
	if h < 0 || h >= numTenantHists {
		return "unknown"
	}
	return tenantHistNames[h]
}

// TenantView is one tenant's slice of the sink. A nil view (disabled
// sink, or no tenant configured) swallows every record in one branch, so
// call sites hold a view pointer and record unconditionally.
type TenantView struct {
	name     string
	counters [numTenantCounters]int64
	hists    [numTenantHists]*stats.Histogram
}

// Name returns the tenant this view belongs to.
func (v *TenantView) Name() string {
	if v == nil {
		return ""
	}
	return v.name
}

// Inc adds 1 to counter c.
func (v *TenantView) Inc(c TenantCounter) {
	if v == nil {
		return
	}
	v.counters[c]++
}

// Add adds n to counter c.
func (v *TenantView) Add(c TenantCounter, n int64) {
	if v == nil {
		return
	}
	v.counters[c] += n
}

// Observe records one sample into distribution h.
func (v *TenantView) Observe(h TenantHist, x int64) {
	if v == nil {
		return
	}
	v.hists[h].Record(x)
}

// ObserveDuration records a duration sample (in nanoseconds) into h.
func (v *TenantView) ObserveDuration(h TenantHist, d time.Duration) { v.Observe(h, int64(d)) }

// Tenant returns the view for the named tenant, creating it on first
// use. A disabled sink or an empty name returns nil (which records
// nothing), so the hot path never branches on configuration.
func (s *Sink) Tenant(name string) *TenantView {
	if s == nil || !s.enabled || name == "" {
		return nil
	}
	if v, ok := s.tenants[name]; ok {
		return v
	}
	v := &TenantView{name: name}
	for i := range v.hists {
		v.hists[i] = stats.NewHistogram()
	}
	if s.tenants == nil {
		s.tenants = make(map[string]*TenantView)
	}
	s.tenants[name] = v
	return v
}

// TenantSnapshot is the exported view of one tenant: the same shape as
// the fabric-wide snapshot body so exporters render both uniformly.
type TenantSnapshot struct {
	Counters   map[string]int64        `json:"counters"`
	Histograms map[string]HistSnapshot `json:"histograms,omitempty"`
}

// snapshotTenants captures every tenant view (nil when there are none).
func (s *Sink) snapshotTenants() map[string]TenantSnapshot {
	if s == nil || !s.enabled || len(s.tenants) == 0 {
		return nil
	}
	out := make(map[string]TenantSnapshot, len(s.tenants))
	for name, v := range s.tenants {
		ts := TenantSnapshot{Counters: map[string]int64{}}
		for c := TenantCounter(0); c < numTenantCounters; c++ {
			if x := v.counters[c]; x != 0 {
				ts.Counters[c.String()] = x
			}
		}
		for h := TenantHist(0); h < numTenantHists; h++ {
			hist := v.hists[h]
			if hist.Count() == 0 {
				continue
			}
			if ts.Histograms == nil {
				ts.Histograms = map[string]HistSnapshot{}
			}
			ts.Histograms[h.String()] = histSnapshotOf(hist)
		}
		out[name] = ts
	}
	return out
}

// mergeTenants folds other's tenant views into s (same-name views merge;
// new names copy).
func (s *Sink) mergeTenants(other *Sink) {
	for name, ov := range other.tenants {
		v := s.Tenant(name)
		if v == nil {
			return
		}
		for i := range v.counters {
			v.counters[i] += ov.counters[i]
		}
		for i := range v.hists {
			v.hists[i].Merge(ov.hists[i])
		}
	}
}
