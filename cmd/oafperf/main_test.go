package main

import (
	"bytes"
	"encoding/json"
	"os"
	"reflect"
	"regexp"
	"strings"
	"testing"

	"nvmeoaf/internal/cache"
	"nvmeoaf/internal/core"
	"nvmeoaf/internal/dial"
	"nvmeoaf/internal/exp"
	"nvmeoaf/internal/figures"
	"nvmeoaf/internal/model"
	"nvmeoaf/internal/qos"
)

// TestREADMEDocumentsDecode: every oafperf invocation in README.md is one
// single-quoted document, and each decodes against the base run.
func TestREADMEDocumentsDecode(t *testing.T) {
	readme, err := os.ReadFile("../../README.md")
	if err != nil {
		t.Fatal(err)
	}
	invocations := strings.Count(string(readme), "go run ./cmd/oafperf")
	docs := regexp.MustCompile(`go run \./cmd/oafperf '([^']*)'`).FindAllStringSubmatch(string(readme), -1)
	if invocations == 0 || len(docs) < invocations {
		t.Fatalf("found %d documents for %d oafperf invocations in README.md", len(docs), invocations)
	}
	for _, d := range docs {
		if _, err := decode(d[1]); err != nil {
			t.Errorf("%s: %v", d[1], err)
		}
	}
}

// TestBadDocumentsExitTwo: a document that does not decode exits 2
// before anything runs.
func TestBadDocumentsExitTwo(t *testing.T) {
	for _, args := range [][]string{
		{`{"Streamz": 4}`},
		{`{"Workload": {"QD": 64}}`},
		{`{"Design": "shm-turbo"}`},
		{`{"Streams": 4} {}`},
		{`{"Workload": {"Name": "s0"}}`},
		{`{}`, `{}`},
	} {
		var out, errOut bytes.Buffer
		if code := run(args, &out, &errOut); code != 2 || out.Len() != 0 {
			t.Errorf("%q: exit %d with %d bytes of report, want exit 2 and none", args, code, out.Len())
		}
	}
}

// TestPartialTPKeepsBase: overriding one transport field keeps the
// others at the base values (a whole-struct default would not).
func TestPartialTPKeepsBase(t *testing.T) {
	cfg, err := decode(`{"TP": {"BatchSize": 16}}`)
	if err != nil {
		t.Fatal(err)
	}
	want := model.DefaultTCPTransport()
	want.BatchSize = 16
	if cfg.TP != want {
		t.Fatalf("TP = %+v, want %+v", cfg.TP, want)
	}
	if cfg.Workload.IOSize != 128<<10 || !cfg.Workload.Seq {
		t.Fatalf("an untouched nested field moved: %+v", cfg.Workload)
	}
}

// TestEnumNamesDecode: designs, cache modes and SLO tiers are named in
// documents and reported under the same names.
func TestEnumNamesDecode(t *testing.T) {
	cfg, err := decode(`{"Design": "shm-lock-free", "CacheMode": "wb",
		"Tenants": [{"Name": "a", "SLO": "latency"}, {"Name": "b", "SLO": "throughput"}]}`)
	if err != nil {
		t.Fatal(err)
	}
	if cfg.Design != core.DesignSHMLockFree || cfg.CacheMode != cache.WriteBack ||
		cfg.Tenants[0].SLO != qos.LatencySensitive || cfg.Tenants[1].SLO != qos.Throughput {
		t.Fatalf("decoded %v %v %v %v", cfg.Design, cfg.CacheMode, cfg.Tenants[0].SLO, cfg.Tenants[1].SLO)
	}
	b, err := json.Marshal(cfg)
	if err != nil {
		t.Fatal(err)
	}
	for _, name := range []string{`"Design":"shm-lock-free"`, `"CacheMode":"write-back"`, `"SLO":"latency"`} {
		if !bytes.Contains(b, []byte(name)) {
			t.Errorf("re-encoded config lacks %s", name)
		}
	}
}

// TestShortRunsEmitEverySection: a 5 ms cached, tuned, tenanted run and
// a 5 ms cluster run with a member crash between them fill every
// section of the report.
func TestShortRunsEmitEverySection(t *testing.T) {
	const window = `"Duration": 5000000, "Warmup": 1000000`
	seen := map[string]bool{}
	for _, doc := range []string{
		`{"Kind": "tcp-25g", "CacheBytes": 16777216, "Tune": true, "TunePeriod": 1000000, "Streams": 2,
			"Tenants": [{"Name": "a", "SLO": "latency"}, {"Name": "b", "RateMBps": 100}],
			"Workload": {"Seq": false, "IOSize": 4096, "QueueDepth": 16, ` + window + `}}`,
		`{"Kind": "rdma-ib56", "ClusterTargets": 3, "CrashMember": 1, "CrashAt": 2000000, "CrashDown": 1000000,
			"Workload": {"Seq": false, "ReadPct": 70, "IOSize": 4096, "QueueDepth": 16, ` + window + `}}`,
	} {
		var out, errOut bytes.Buffer
		if code := run([]string{doc}, &out, &errOut); code != 0 {
			t.Fatalf("exit %d: %s", code, errOut.String())
		}
		var r map[string]json.RawMessage
		if err := json.Unmarshal(out.Bytes(), &r); err != nil {
			t.Fatal(err)
		}
		for k, v := range r {
			if string(v) != "null" && string(v) != "[]" && string(v) != "{}" {
				seen[k] = true
			}
		}
	}
	for _, k := range []string{"config", "perf", "breakdown", "streams", "ssds", "wire_bytes", "shm_bytes",
		"telemetry", "pools", "caches", "cluster", "faults", "tuner", "qos", "tenants"} {
		if !seen[k] {
			t.Errorf("no run filled section %q", k)
		}
	}
}

// TestSpanReachesTheRun: a document's Workload.Span bounds the offsets
// the run draws. Behind a 1 MiB cache, 4 KiB random reads over one
// block hit where reads over the whole device miss, so the perf section
// moves.
func TestSpanReachesTheRun(t *testing.T) {
	perf := func(span string) string {
		t.Helper()
		doc := `{"CacheBytes": 1048576, "Workload": {"Seq": false, "IOSize": 4096, "QueueDepth": 16,
			"Duration": 5000000, "Warmup": 1000000` + span + `}}`
		var out, errOut bytes.Buffer
		if code := run([]string{doc}, &out, &errOut); code != 0 {
			t.Fatalf("exit %d: %s", code, errOut.String())
		}
		var r map[string]json.RawMessage
		if err := json.Unmarshal(out.Bytes(), &r); err != nil {
			t.Fatal(err)
		}
		return string(r["perf"])
	}
	if whole, one := perf(""), perf(`, "Span": 4096`); whole == one {
		t.Fatalf("Span 4096 left the perf section unchanged: %s", one)
	}
}

// TestFigureRowsDecodeUnchanged: every exp.Config row document of the
// figure table survives JSON encoding and this command's decode
// unchanged, so oafperf given a row's document runs exactly that row,
// and it already names the kind and design that run.
func TestFigureRowsDecodeUnchanged(t *testing.T) {
	rows := 0
	for _, f := range figures.Table(figures.Quick()) {
		for _, r := range f.Rows {
			cfg, ok := r.Doc.(exp.Config)
			if !ok {
				continue
			}
			rows++
			if k, d := dial.Defaults(cfg.Kind, cfg.Design); k != cfg.Kind || d != cfg.Design {
				t.Errorf("Fig %s %v: the document says %s/%s, the run is %s/%s", f.Names[0], r.Labels, cfg.Kind, cfg.Design, k, d)
			}
			doc, err := json.Marshal(cfg)
			if err != nil {
				t.Fatal(err)
			}
			got, err := decode(string(doc))
			if err != nil || !reflect.DeepEqual(got, cfg) {
				t.Errorf("Fig %s %v: %s decoded to %+v (%v)", f.Names[0], r.Labels, doc, got, err)
			}
		}
	}
	if rows == 0 {
		t.Fatal("the figure table has no exp.Config rows")
	}
}

// TestFigureRowMatchesFigurePoint: Fig 8's shm-0-copy row and the
// registration-cache ablation's regcache row, run through oafperf, report
// the GB/s and p99.99 of their figure points.
func TestFigureRowMatchesFigurePoint(t *testing.T) {
	table := figures.Table(figures.Quick())
	for _, want := range []struct{ fig, label string }{{"8", "shm-0-copy"}, {"regcache", "regcache"}} {
		figs, err := figures.Select(table, want.fig)
		if err != nil {
			t.Fatal(err)
		}
		var doc any
		for _, r := range figs[0].Rows {
			if r.Labels[0] == want.label {
				doc = r.Doc
			}
		}
		b, err := json.Marshal(doc)
		if err != nil {
			t.Fatal(err)
		}
		var out, errOut bytes.Buffer
		if code := run([]string{string(b)}, &out, &errOut); code != 0 {
			t.Fatalf("%s: exit %d: %s", want.label, code, errOut.String())
		}
		var rep struct {
			Perf summary `json:"perf"`
		}
		if err := json.Unmarshal(out.Bytes(), &rep); err != nil {
			t.Fatal(err)
		}
		p, err := figures.NewRunner().Point(doc)
		if err != nil {
			t.Fatal(err)
		}
		if rep.Perf.GBps != p.GBps || rep.Perf.P9999Us != p.P9999Us {
			t.Errorf("%s: oafperf: %.3f GB/s, p99.99 %.1f us; figure point: %.3f GB/s, p99.99 %.1f us",
				want.label, rep.Perf.GBps, rep.Perf.P9999Us, p.GBps, p.P9999Us)
		}
	}
}
