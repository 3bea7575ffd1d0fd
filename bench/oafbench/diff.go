package main

import (
	"fmt"
	"io"
	"math"
)

// Verdicts of one workload x end-to-end metric row.
const (
	improved   = "improved"
	unchanged  = "unchanged"
	regressed  = "regressed"
	unresolved = "unresolved"
)

// judge compares one end-to-end metric of two reports against its bound.
// worse is the share of the base by which the new value is worse (negative
// when better). A row whose spread on either side is wider than the bound
// cannot be called either way: unresolved, not unchanged.
func judge(d metricDef, base, new metricValue) (worse float64, verdict string) {
	if base.Value != 0 {
		worse = (new.Value - base.Value) / math.Abs(base.Value)
	}
	if d.Better == higher {
		worse = -worse
	}
	switch {
	case base.Value == new.Value:
		return 0, unchanged
	case base.Spread > d.Bound || new.Spread > d.Bound:
		return worse, unresolved
	case worse > d.Bound:
		return worse, regressed
	case worse < -d.Bound:
		return worse, improved
	}
	return worse, unchanged
}

// layerDeltaFloor hides per-layer rows that moved less than this share.
const layerDeltaFloor = 0.02

// diffReports prints, per workload and end-to-end metric, base, new, ratio
// and verdict, with the per-layer deltas underneath. Rows start with the
// workload and metric names so they can be filtered with grep.
func diffReports(w io.Writer, basePath, newPath string) error {
	base, err := readReport(basePath)
	if err != nil {
		return err
	}
	next, err := readReport(newPath)
	if err != nil {
		return err
	}
	if base.Seed != next.Seed {
		fmt.Fprintf(w, "# seeds differ (%d, %d): sim_* rows compare different inputs\n", base.Seed, next.Seed)
	}
	if !base.Comparable || !next.Comparable {
		fmt.Fprintln(w, "# -quick results: not comparable with full runs")
	}
	fmt.Fprintf(w, "%-24s %-22s %16s %16s %8s  %s\n", "workload", "metric", "base", "new", "ratio", "verdict")
	for _, b := range base.Workloads {
		n := next.workload(b.Name)
		if n == nil {
			fmt.Fprintf(w, "%-24s missing from %s\n", b.Name, newPath)
			continue
		}
		for _, d := range endToEnd {
			bv, nv := b.EndToEnd[d.Name], n.EndToEnd[d.Name]
			worse, verdict := judge(d, bv, nv)
			fmt.Fprintf(w, "%-24s %-22s %16.4f %16.4f %8.4f  %s (%+.2f%% worse, bound %g%%)\n",
				b.Name, d.Name, bv.Value, nv.Value, nv.Value/bv.Value, verdict, 100*worse, 100*d.Bound)
		}
		if b.Failed != n.Failed || b.Attempted != n.Attempted {
			fmt.Fprintf(w, "%-24s %-22s %16d %16d           attempted %d -> %d\n", b.Name, "failed", b.Failed, n.Failed, b.Attempted, n.Attempted)
		}
		diffLayers(w, "  "+b.Name, b.PerLayer, n.PerLayer)
	}
	diffLayers(w, "  drivers", base.Drivers, next.Drivers)
	return nil
}

// diffLayers prints the per-layer values that moved, appeared or vanished.
func diffLayers(w io.Writer, scope string, base, next map[string]metricValue) {
	if len(base) == 0 && len(next) == 0 {
		return
	}
	same := 0
	for _, d := range perLayer {
		bv, inBase := base[d.Name]
		nv, inNext := next[d.Name]
		switch {
		case !inBase && !inNext:
		case !inNext:
			fmt.Fprintf(w, "%-26s %-34s %14.4f %14s  vanished\n", scope, d.Name, bv.Value, "-")
		case !inBase:
			fmt.Fprintf(w, "%-26s %-34s %14s %14.4f  appeared\n", scope, d.Name, "-", nv.Value)
		case bv.Value == nv.Value || math.Abs(nv.Value-bv.Value) <= layerDeltaFloor*math.Abs(bv.Value):
			same++
		default:
			fmt.Fprintf(w, "%-26s %-34s %14.4f %14.4f  %+.1f%% %s\n", scope, d.Name, bv.Value, nv.Value, 100*(nv.Value-bv.Value)/math.Abs(bv.Value), d.Unit)
		}
	}
	fmt.Fprintf(w, "%-26s %d per-layer values within %g%%\n", scope, same, 100*layerDeltaFloor)
}
