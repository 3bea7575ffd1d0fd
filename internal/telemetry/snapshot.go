package telemetry

import (
	"encoding/json"

	"nvmeoaf/internal/stats"
)

// HistSnapshot is the exported summary of one distribution. Latency
// histograms are in nanoseconds; the *_us fields convert for humans.
type HistSnapshot struct {
	Count   int64   `json:"count"`
	Mean    float64 `json:"mean"`
	Min     int64   `json:"min"`
	Max     int64   `json:"max"`
	P50     int64   `json:"p50"`
	P99     int64   `json:"p99"`
	P999    int64   `json:"p999"`
	P9999   int64   `json:"p9999"`
	MeanUs  float64 `json:"mean_us"`
	P50Us   float64 `json:"p50_us"`
	P99Us   float64 `json:"p99_us"`
	P999Us  float64 `json:"p999_us"`
	P9999Us float64 `json:"p9999_us"`
}

// EventSnapshot is one trace entry in exported form.
type EventSnapshot struct {
	AtNs int64  `json:"at_ns"`
	Kind string `json:"kind"`
	CID  uint16 `json:"cid,omitempty"`
	Path string `json:"path,omitempty"`
	Note string `json:"note,omitempty"`
}

// Snapshot is the JSON-marshalable view of a sink. Zero-valued counters
// and empty histograms are elided so exported documents stay readable.
type Snapshot struct {
	// AtNs is the virtual time the snapshot was taken (0 when captured
	// through Snapshot rather than SnapshotAt). DeltaSince uses it to
	// derive per-second rates between two timestamped snapshots.
	AtNs       int64                   `json:"at_ns,omitempty"`
	Counters   map[string]int64        `json:"counters"`
	Histograms map[string]HistSnapshot `json:"histograms"`
	// Tenants holds the per-tenant views (absent when no tenant was ever
	// named): who submitted, who was throttled, who borrowed or lent
	// token capacity.
	Tenants    map[string]TenantSnapshot `json:"tenants,omitempty"`
	Trace      []EventSnapshot           `json:"trace,omitempty"`
	TraceTotal uint64                    `json:"trace_total,omitempty"`
}

// histSnapshotOf summarizes one histogram in exported form.
func histSnapshotOf(hist *stats.Histogram) HistSnapshot {
	return HistSnapshot{
		Count:   hist.Count(),
		Mean:    hist.Mean(),
		Min:     hist.Min(),
		Max:     hist.Max(),
		P50:     hist.P50(),
		P99:     hist.P99(),
		P999:    hist.P999(),
		P9999:   hist.P9999(),
		MeanUs:  hist.Mean() / 1e3,
		P50Us:   float64(hist.P50()) / 1e3,
		P99Us:   float64(hist.P99()) / 1e3,
		P999Us:  float64(hist.P999()) / 1e3,
		P9999Us: float64(hist.P9999()) / 1e3,
	}
}

// SnapshotAt captures the sink's current state stamped with the given
// virtual time, enabling rate derivation via DeltaSince.
func (s *Sink) SnapshotAt(atNs int64) Snapshot {
	snap := s.Snapshot()
	snap.AtNs = atNs
	return snap
}

// Snapshot captures the sink's current state. It allocates; call it at
// export points, not on the I/O path.
func (s *Sink) Snapshot() Snapshot {
	snap := Snapshot{
		Counters:   map[string]int64{},
		Histograms: map[string]HistSnapshot{},
	}
	if s == nil || !s.enabled {
		return snap
	}
	for c := Counter(0); c < numCounters; c++ {
		if v := s.counters[c]; v != 0 {
			snap.Counters[c.String()] = v
		}
	}
	for h := Hist(0); h < numHists; h++ {
		hist := s.hists[h]
		if hist.Count() == 0 {
			continue
		}
		snap.Histograms[h.String()] = histSnapshotOf(hist)
	}
	snap.Tenants = s.snapshotTenants()
	for _, ev := range s.Events() {
		snap.Trace = append(snap.Trace, EventSnapshot{
			AtNs: ev.AtNs, Kind: ev.Kind.String(), CID: ev.CID,
			Path: ev.Path, Note: ev.Note,
		})
	}
	snap.TraceTotal = s.total
	return snap
}

// MarshalJSON on Sink exports its Snapshot, so a *Sink can be embedded
// directly in larger exported documents.
func (s *Sink) MarshalJSON() ([]byte, error) {
	return json.Marshal(s.Snapshot())
}
