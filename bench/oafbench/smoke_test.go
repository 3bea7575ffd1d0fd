package main

import (
	"bytes"
	"encoding/json"
	"io"
	"os"
	"path/filepath"
	"strings"
	"testing"

	"nvmeoaf/bench/layers"
)

// TestQuickSmoke is the -quick run with the traced pass: all five workloads,
// every driver, the report, trace.json and -diff, on windows a twentieth of
// the real ones.
func TestQuickSmoke(t *testing.T) {
	if testing.Short() {
		t.Skip("runs all five workloads (~15 s)")
	}
	dir := t.TempDir()
	out, tracePath := filepath.Join(dir, "quick.json"), filepath.Join(dir, "trace.json")
	if err := run(options{seed: 42, quick: true, trace: true, out: out, traceOut: tracePath}, io.Discard); err != nil {
		t.Fatal(err)
	}

	rep, err := readReport(out)
	if err != nil {
		t.Fatal(err)
	}
	if rep.Comparable {
		t.Error("a -quick report must be stamped non-comparable")
	}
	if rep.Claim != nil {
		t.Error("the benchmark claims nothing")
	}
	if len(rep.Workloads) != len(workloads) {
		t.Fatalf("%d workloads in the report, want %d", len(rep.Workloads), len(workloads))
	}
	for _, r := range rep.Workloads {
		if r.Attempted == 0 || r.Failed != 0 {
			t.Errorf("%s: %d attempted, %d failed", r.Name, r.Attempted, r.Failed)
		}
		for _, d := range endToEnd {
			if v := r.EndToEnd[d.Name]; v.Value <= 0 || v.Unit != d.Unit {
				t.Errorf("%s: %s = %+v, want a positive value in %s", r.Name, d.Name, v, d.Unit)
			}
		}
		for _, l := range layers.Names {
			if _, ok := r.PerLayer[l+".cpu_ns_per_io"]; !ok {
				t.Errorf("%s: no %s.cpu_ns_per_io", r.Name, l)
			}
		}
		if r.PerLayer["sim.allocs_per_io"].Value <= 0 {
			t.Errorf("%s: the heap profile charged nothing to sim", r.Name)
		}
		if _, ok := r.PerLayer["ssd.io_us"]; !ok {
			t.Errorf("%s: model counters missing", r.Name)
		}
	}
	// Absent, not zero: a counter whose subsystem is not in the workload.
	if _, ok := rep.workload("tcp4k_randread").PerLayer["cache.hit_ratio"]; ok {
		t.Error("tcp4k_randread reports a cache hit ratio without a cache")
	}
	if v := rep.workload("oaf4k_cached_zipf_mixed").PerLayer["cache.hit_ratio"].Value; v <= 0 || v > 1 {
		t.Errorf("cached workload: hit ratio %v", v)
	}
	if v := rep.workload("cluster4_rdma4k_mixed").PerLayer["qos.taken_bytes_per_io"].Value; v <= 0 {
		t.Errorf("cluster workload: %v bytes debited per I/O: the tenant's tokens are not on the path", v)
	}
	for _, d := range layers.Drivers {
		if rep.Drivers[d.Name+"_ns"].Value <= 0 {
			t.Errorf("driver %s reported no time", d.Name)
		}
	}

	var tf traceFile
	b, err := os.ReadFile(tracePath)
	if err != nil {
		t.Fatal(err)
	}
	if err := json.Unmarshal(b, &tf); err != nil {
		t.Fatal(err)
	}
	if len(tf.Workloads) != len(workloads) {
		t.Errorf("trace.json covers %d workloads, want %d", len(tf.Workloads), len(workloads))
	}
	names := map[string]bool{}
	for _, s := range tf.Spans {
		names[s.Name] = true
		if s.EndNs < s.StartNs || s.Parent >= s.ID {
			t.Errorf("span %+v is not closed or names a later parent", s)
		}
	}
	for _, want := range []string{"verify/tcp", "tcp4k_randread/setup", "tcp4k_randread/window", "tcp4k_randread/traced-window", "drivers"} {
		if !names[want] {
			t.Errorf("trace.json has no span %q", want)
		}
	}

	// A report diffed against itself has only unchanged rows.
	var diff bytes.Buffer
	if err := diffReports(&diff, out, out); err != nil {
		t.Fatal(err)
	}
	for _, verdict := range []string{improved, regressed, unresolved} {
		if strings.Contains(diff.String(), verdict) {
			t.Errorf("self-diff holds a row judged %s:\n%s", verdict, diff.String())
		}
	}
}
