package main

import "testing"

func TestJudge(t *testing.T) {
	lowerIsBetter := metricDef{Name: "wall_ns_per_io", Better: lower, Bound: 0.10}
	higherIsBetter := metricDef{Name: "sim_iops", Better: higher, Bound: 0.01}
	host := func(v, min, max float64) metricValue {
		return metricValue{Value: v, Min: min, Max: max, N: 3, Spread: (max - min) / v}
	}
	cases := []struct {
		name      string
		def       metricDef
		base, new metricValue
		want      string
	}{
		{"identical", higherIsBetter, metricValue{Value: 50581}, metricValue{Value: 50581}, unchanged},
		{"inside the bound", lowerIsBetter, host(100, 99, 101), host(105, 104, 106), unchanged},
		{"worse by more than the bound", lowerIsBetter, host(100, 99, 101), host(115, 114, 116), regressed},
		{"better by more than the bound", lowerIsBetter, host(100, 99, 101), host(80, 79, 81), improved},
		{"higher is better: a drop regresses", higherIsBetter, metricValue{Value: 1000}, metricValue{Value: 980}, regressed},
		{"higher is better: a rise improves", higherIsBetter, metricValue{Value: 1000}, metricValue{Value: 1020}, improved},
		{"base spread wider than the bound", lowerIsBetter, host(100, 90, 105), host(115, 114, 116), unresolved},
		{"new spread wider than the bound", lowerIsBetter, host(100, 99, 101), host(80, 70, 95), unresolved},
	}
	for _, c := range cases {
		if _, got := judge(c.def, c.base, c.new); got != c.want {
			t.Errorf("%s: %s, want %s", c.name, got, c.want)
		}
	}
}
