// Command oafbench is the repository's two-clock benchmark: five fixed
// workloads through exp.Run, measured in virtual time (what the modelled
// hardware would deliver) and in host time (what this Go program costs per
// simulated I/O), with a separate traced pass that attributes CPU time and
// heap allocations to each internal/<layer> from outside the program. See
// ../README.md.
//
//	oafbench                         all workloads, end-to-end metrics
//	oafbench -trace 1                plus the traced pass and layer drivers
//	oafbench -workload W -seed N -seconds S -trace 0|1
//	                                 one workload; the last line of output is
//	                                 the BENCHMARK.json contract's result
//	oafbench -quick                  smoke run, windows / 20, not comparable
//	oafbench -diff a.json b.json     compare two reports
//	oafbench -spec                   print BENCHMARK.json
package main

import (
	"encoding/json"
	"flag"
	"fmt"
	"io"
	"os"
	"runtime"
	"time"

	"nvmeoaf/bench/layers"
)

// maxProcs pins GOMAXPROCS: the simulation runs one process at a time, the
// second P serves the collector. Pinned so host cost compares across boxes
// with more cores.
const maxProcs = 2

type options struct {
	workload string
	seed     int64
	seconds  int
	trace    bool
	quick    bool
	out      string
	traceOut string
}

func main() {
	var o options
	traceLevel := flag.Int("trace", 0, "1 = run the traced pass (per-layer metrics); timed metrics are always measured with it off")
	flag.StringVar(&o.workload, "workload", "", "run one workload and end with the BENCHMARK.json result line (default: all workloads, JSON report)")
	flag.Int64Var(&o.seed, "seed", 42, "workload seed; reaches the program only through exp.Config.Seed")
	flag.IntVar(&o.seconds, "seconds", runSeconds, "host seconds within which a workload's timed full runs start")
	flag.BoolVar(&o.quick, "quick", false, "smoke run: windows / 20, output stamped non-comparable")
	flag.StringVar(&o.out, "out", "", "write the JSON report to this file instead of standard output")
	flag.StringVar(&o.traceOut, "trace-out", "trace.json", "where the traced pass writes its spans and per-layer samples")
	diff := flag.Bool("diff", false, "compare two reports: oafbench -diff base.json new.json")
	printSpec := flag.Bool("spec", false, "print BENCHMARK.json and exit")
	flag.Parse()
	o.trace = *traceLevel != 0

	var err error
	switch {
	case *printSpec:
		_, err = os.Stdout.Write(benchmarkSpec().marshal())
	case *diff:
		if flag.NArg() != 2 {
			err = fmt.Errorf("-diff takes two report files")
			break
		}
		err = diffReports(os.Stdout, flag.Arg(0), flag.Arg(1))
	case flag.NArg() != 0:
		err = fmt.Errorf("unexpected arguments %q", flag.Args())
	default:
		runtime.GOMAXPROCS(maxProcs)
		err = run(o, os.Stdout)
	}
	if err != nil {
		// A correctness failure emits no metrics: the error is all there is.
		fmt.Fprintln(os.Stderr, "oafbench:", err)
		os.Exit(1)
	}
}

// run measures the selected workloads and prints the results to w.
func run(o options, w io.Writer) error {
	selected := workloads
	if o.workload != "" {
		one, ok := findWorkload(o.workload)
		if !ok {
			return fmt.Errorf("unknown workload %q", o.workload)
		}
		selected = []workload{one}
	}
	contract := o.workload != ""
	budget := time.Duration(o.seconds) * time.Second
	if o.quick || (contract && o.trace) {
		// A smoke run makes the minimum of repeats. So does the one-workload
		// traced run: there the traced pass is the measurement, and the
		// untraced runs only give it its baseline.
		budget = 0
	}

	rep := &report{
		Schema: schemaVersion, Seed: o.seed, Comparable: !o.quick,
		GoVersion: runtime.Version(), MaxProcs: maxProcs,
	}
	sp := newSpans()
	perWorkload := map[string]costs{}
	for _, wl := range selected {
		id := sp.start("verify/"+wl.Path, -1)
		err := verify(wl.Path, o.seed)
		sp.end(id)
		if err != nil {
			return err
		}

		id = sp.start(wl.Name, -1)
		m, err := measure(wl, o.seed, o.quick, budget, sp, id)
		if err != nil {
			return err
		}
		res := resultOf(wl, m)
		if o.trace {
			t, err := tracePass(wl, o.seed, o.quick, m.Facts, sp, id)
			if err != nil {
				return err
			}
			perWorkload[wl.Name] = t.Layers
			res.PerLayer = withUnits(t.perLayerMetrics(float64(m.Facts.Ops),
				pick(m.Timed, wallSeconds).Median, res.EndToEnd["allocs_per_io"].Value))
		}
		sp.end(id)
		rep.Workloads = append(rep.Workloads, res)
	}
	if o.trace {
		id := sp.start("drivers", -1)
		rep.Drivers = withUnits(runDrivers(o.quick))
		sp.end(id)
		if err := writeTrace(o.traceOut, sp, perWorkload); err != nil {
			return fmt.Errorf("write trace: %w", err)
		}
	}

	for _, r := range rep.Workloads {
		fmt.Fprintf(w, "# %s: %d I/Os in a %.0f ms virtual window, %d failed\n", r.Name, r.Attempted, r.WindowMs, r.Failed)
		printMetrics(w, r.Name, endToEnd, r.EndToEnd)
		printMetrics(w, r.Name, perLayer, r.PerLayer)
	}
	printMetrics(w, "drivers", perLayer, rep.Drivers)
	if !rep.Comparable {
		fmt.Fprintln(w, "# -quick: windows / 20, NOT comparable with full runs")
	}

	if o.out != "" {
		f, err := os.Create(o.out)
		if err != nil {
			return err
		}
		if err := rep.write(f); err != nil {
			f.Close()
			return err
		}
		if err := f.Close(); err != nil {
			return err
		}
	}
	if contract {
		return printContractLine(w, rep, o.trace)
	}
	if o.out == "" {
		return rep.write(w)
	}
	return nil
}

// runDrivers measures every layer driver.
func runDrivers(quick bool) map[string]float64 {
	div := 1
	if quick {
		div = quickDiv
	}
	out := map[string]float64{}
	for _, d := range layers.Drivers {
		c := layers.Measure(d, div)
		out[d.Name+"_ns"] = c.Ns
		if d.Allocs {
			out[d.Name+"_allocs"] = c.Allocs
		}
	}
	return out
}

// withUnits attaches each per-layer value's unit.
func withUnits(vals map[string]float64) map[string]metricValue {
	out := make(map[string]metricValue, len(vals))
	for _, d := range perLayer {
		if v, ok := vals[d.Name]; ok {
			out[d.Name] = metricValue{Value: v, Unit: d.Unit}
		}
	}
	return out
}

// printContractLine prints the one-workload result the BENCHMARK.json
// contract asks for as the last line of standard output: every end-to-end
// metric without tracing, every per-layer metric with it. The contract wants
// each listed metric present, so a per-layer counter that is absent on this
// workload (its subsystem is not on the path) reads 0 here; the report and
// trace.json leave it out.
func printContractLine(w io.Writer, rep *report, trace bool) error {
	type value struct {
		Value float64 `json:"value"`
		Unit  string  `json:"unit"`
	}
	r := rep.Workloads[0]
	metrics := map[string]value{}
	if trace {
		for _, d := range perLayer {
			v := r.PerLayer[d.Name]
			if dv, ok := rep.Drivers[d.Name]; ok {
				v = dv
			}
			metrics[d.Name] = value{v.Value, d.Unit}
		}
	} else {
		for _, d := range endToEnd {
			metrics[d.Name] = value{r.EndToEnd[d.Name].Value, d.Unit}
		}
	}
	line, err := json.Marshal(struct {
		Correct   bool             `json:"correct"`
		Attempted int64            `json:"attempted"`
		Failed    int64            `json:"failed"`
		Metrics   map[string]value `json:"metrics"`
	}{true, r.Attempted, r.Failed, metrics})
	if err != nil {
		return err
	}
	_, err = fmt.Fprintf(w, "%s\n", line)
	return err
}
