package main

import (
	"encoding/json"
	"fmt"
	"io"
	"os"
)

// schemaVersion names the layout of report; -diff refuses any other.
const schemaVersion = "oafbench/1"

// metricValue is one reported number. Host measurements that were repeated
// carry the extremes, the count and the relative spread (see spread) of their
// repeats beside the median; virtual-time values repeat exactly and carry none.
type metricValue struct {
	Value  float64 `json:"value"`
	Unit   string  `json:"unit"`
	Min    float64 `json:"min,omitempty"`
	Max    float64 `json:"max,omitempty"`
	N      int     `json:"n,omitempty"`
	Spread float64 `json:"spread,omitempty"`
}

func hostValue(s spread, unit string) metricValue {
	return metricValue{Value: s.Median, Unit: unit, Min: s.Min, Max: s.Max, N: s.N, Spread: s.Rel}
}

// workloadResult is everything measured for one workload.
type workloadResult struct {
	Name string `json:"name"`
	// Attempted and Failed count the I/Os of the measured window.
	Attempted  int64   `json:"attempted"`
	Failed     int64   `json:"failed"`
	FailedFrac float64 `json:"failed_frac"`
	// WindowMs is the measured virtual window.
	WindowMs float64                `json:"window_sim_ms"`
	EndToEnd map[string]metricValue `json:"end_to_end"`
	// HistEdgeUs holds the percentiles as stats.Histogram reports them
	// (bucket upper edges), the form the repository's figures print;
	// end_to_end carries the interpolated ones.
	HistEdgeUs map[string]float64 `json:"hist_edge_sim_us"`
	// PerLayer is filled by the traced pass; a counter whose subsystem is
	// not in the workload is absent.
	PerLayer map[string]metricValue `json:"per_layer,omitempty"`
}

// report is the JSON summary of one benchmark invocation.
type report struct {
	Schema string `json:"schema"`
	Seed   int64  `json:"seed"`
	// Comparable is false for -quick smoke runs, whose windows are a
	// twentieth of the real ones: never diff them against full runs.
	Comparable bool             `json:"comparable"`
	GoVersion  string           `json:"go"`
	MaxProcs   int              `json:"gomaxprocs"`
	Workloads  []workloadResult `json:"workloads"`
	// Drivers are the workload-independent layer drivers (traced pass).
	Drivers map[string]metricValue `json:"drivers,omitempty"`
	// Claim stays null: this benchmark is the ruler, it claims no gain.
	Claim *string `json:"claim"`
}

func (r *report) workload(name string) *workloadResult {
	for i := range r.Workloads {
		if r.Workloads[i].Name == name {
			return &r.Workloads[i]
		}
	}
	return nil
}

func (r *report) write(w io.Writer) error {
	b, err := json.MarshalIndent(r, "", "  ")
	if err != nil {
		return err
	}
	_, err = w.Write(append(b, '\n'))
	return err
}

func readReport(path string) (*report, error) {
	b, err := os.ReadFile(path)
	if err != nil {
		return nil, err
	}
	var r report
	if err := json.Unmarshal(b, &r); err != nil {
		return nil, fmt.Errorf("%s: %w", path, err)
	}
	if r.Schema != schemaVersion {
		return nil, fmt.Errorf("%s: schema %q, want %q", path, r.Schema, schemaVersion)
	}
	return &r, nil
}

// endToEndValues computes the end-to-end metrics of a measurement.
func endToEndValues(m *measured) map[string]metricValue {
	units := map[string]string{}
	for _, d := range endToEnd {
		units[d.Name] = d.Unit
	}
	out := map[string]metricValue{}
	sim := func(name string, v float64) { out[name] = metricValue{Value: v, Unit: units[name]} }
	sim("sim_iops", m.Facts.IOPS)
	sim("sim_lat_p50_us", m.Facts.P50)
	sim("sim_lat_p99_us", m.Facts.P99)
	sim("sim_lat_p999_us", m.Facts.P999)

	// Per-I/O host cost: each full run minus the median set-up run.
	ios := float64(m.Facts.Ops)
	host := func(name string, f func(hostCost) float64) {
		setup := pick(m.Setup, f).Median
		s := pick(m.Timed, func(c hostCost) float64 { return (f(c) - setup) / ios })
		out[name] = hostValue(s, units[name])
	}
	host("wall_ns_per_io", func(c hostCost) float64 { return float64(c.Wall.Nanoseconds()) })
	host("allocs_per_io", mallocs)
	host("alloc_bytes_per_io", allocBytes)
	out["setup_s"] = hostValue(pick(m.Setup, wallSeconds), units["setup_s"])
	return out
}

func resultOf(w workload, m *measured) workloadResult {
	f := m.Facts
	r := workloadResult{
		Name:      w.Name,
		Attempted: f.Ops + f.Errors, Failed: f.Errors,
		FailedFrac: float64(f.Errors) / float64(f.Ops+f.Errors),
		WindowMs:   float64(m.Window.Microseconds()) / 1e3,
		EndToEnd:   endToEndValues(m),
		HistEdgeUs: map[string]float64{"p50": f.EdgeP50, "p99": f.EdgeP99},
	}
	if f.Ops >= p9999MinSamples {
		r.HistEdgeUs["p9999"] = f.EdgeP9999
	}
	return r
}

// printMetrics lists values by name with unit, direction and bound.
func printMetrics(w io.Writer, scope string, defs []metricDef, vals map[string]metricValue) {
	for _, d := range defs {
		v, ok := vals[d.Name]
		if !ok {
			continue
		}
		line := fmt.Sprintf("%-24s %-34s %16.4f %-8s %s is better", scope, d.Name, v.Value, d.Unit, d.Better)
		if d.Bound > 0 {
			line += fmt.Sprintf(", bound %g%%", 100*d.Bound)
		}
		if v.N > 0 {
			line += fmt.Sprintf("  [min %.4f max %.4f n=%d spread %.1f%%]", v.Min, v.Max, v.N, 100*v.Spread)
		}
		fmt.Fprintln(w, line)
	}
}
