package main

import (
	"bytes"
	"os"
	"path/filepath"
	"reflect"
	"regexp"
	"strings"
	"testing"
)

func sampleReport() *report {
	return &report{
		Schema: schemaVersion, Seed: 7, Comparable: true, GoVersion: "go1.24.0", MaxProcs: maxProcs,
		Workloads: []workloadResult{{
			Name: "tcp4k_randread", Attempted: 303487, WindowMs: 6000,
			EndToEnd: map[string]metricValue{
				"sim_iops":       {Value: 50581.1667, Unit: "1/sim_s"},
				"wall_ns_per_io": {Value: 12000, Unit: "ns", Min: 11900, Max: 12200, N: 3, Spread: 0.025},
			},
			HistEdgeUs: map[string]float64{"p50": 1278.0, "p99": 1294.3, "p9999": 2228.2},
			PerLayer:   map[string]metricValue{"sim.cpu_ns_per_io": {Value: 6952.5, Unit: "ns"}},
		}},
		Drivers: map[string]metricValue{"sim.drv_sleep_ns": {Value: 474.3, Unit: "ns"}},
	}
}

func TestReportRoundTrip(t *testing.T) {
	want := sampleReport()
	var buf bytes.Buffer
	if err := want.write(&buf); err != nil {
		t.Fatal(err)
	}
	if !strings.HasSuffix(strings.TrimSpace(buf.String()), "\"claim\": null\n}") {
		t.Errorf("the summary must end with \"claim\": null, got ...%q", buf.String()[buf.Len()-40:])
	}
	path := filepath.Join(t.TempDir(), "r.json")
	if err := os.WriteFile(path, buf.Bytes(), 0o644); err != nil {
		t.Fatal(err)
	}
	got, err := readReport(path)
	if err != nil {
		t.Fatal(err)
	}
	if !reflect.DeepEqual(got, want) {
		t.Errorf("round trip changed the report:\n got %+v\nwant %+v", got, want)
	}

	if err := os.WriteFile(path, []byte(`{"schema":"oafbench/0"}`), 0o644); err != nil {
		t.Fatal(err)
	}
	if _, err := readReport(path); err == nil {
		t.Error("a report of another schema was accepted")
	}
}

// BENCHMARK.json is generated (`oafbench -spec`); the checked-in file must be
// what this source generates, and inside the limits of its contract.
func TestBenchmarkSpec(t *testing.T) {
	s := benchmarkSpec()
	onDisk, err := os.ReadFile("../../BENCHMARK.json")
	if err != nil {
		t.Fatal(err)
	}
	if !bytes.Equal(onDisk, s.marshal()) {
		t.Error("BENCHMARK.json is stale: regenerate it with `go run -C bench ./oafbench -spec > BENCHMARK.json`")
	}

	name := regexp.MustCompile(`^[A-Za-z0-9][A-Za-z0-9_.-]{0,63}$`)
	unit := regexp.MustCompile(`^[A-Za-z0-9_/%.-]{1,16}$`)
	seen := map[string]bool{}
	check := func(n string) {
		if !name.MatchString(n) {
			t.Errorf("name %q is outside the contract", n)
		}
		if seen[n] {
			t.Errorf("name %q is used twice", n)
		}
		seen[n] = true
	}
	if len(s.Workloads) != 5 {
		t.Errorf("%d workloads, want 5", len(s.Workloads))
	}
	for _, w := range s.Workloads {
		check(w.Name)
		if len(w.Why) > 200 || strings.Contains(w.Why, "\n") {
			t.Errorf("why of %s: %d characters, want one line of at most 200", w.Name, len(w.Why))
		}
	}
	setup := false
	for _, d := range s.EndToEnd {
		check(d.Name)
		if d.Bound <= 0 || d.Bound > 0.25 {
			t.Errorf("%s: bound %g outside (0, 0.25]", d.Name, d.Bound)
		}
		setup = setup || (d.Name == "setup_s" && d.Unit == "s" && d.Better == lower)
	}
	if !setup {
		t.Error("end_to_end lacks setup_s in s, lower is better")
	}
	if n := len(s.PerLayer); n < 1 || n > 128 {
		t.Errorf("%d per-layer metrics, want 1..128", n)
	}
	for _, d := range append(append([]metricDef{}, s.EndToEnd...), s.PerLayer...) {
		if !unit.MatchString(d.Unit) {
			t.Errorf("%s: unit %q is outside the contract", d.Name, d.Unit)
		}
		if d.Better != higher && d.Better != lower {
			t.Errorf("%s: better = %q", d.Name, d.Better)
		}
	}
	for _, d := range s.PerLayer {
		check(d.Name)
		if d.Bound != 0 {
			t.Errorf("%s: per-layer metrics have no bound", d.Name)
		}
	}
}
