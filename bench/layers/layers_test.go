package layers

import (
	"strings"
	"testing"
)

// Every driver runs, costs something, and is named after a layer that exists.
func TestDrivers(t *testing.T) {
	isLayer := map[string]bool{}
	for _, l := range Names {
		isLayer[l] = true
	}
	seen := map[string]bool{}
	for _, d := range Drivers {
		layer, op, ok := strings.Cut(d.Name, ".drv_")
		if !ok || !isLayer[layer] || op == "" {
			t.Errorf("driver %q is not named <layer>.drv_<operation>", d.Name)
		}
		if seen[d.Name] {
			t.Errorf("driver %q is listed twice", d.Name)
		}
		seen[d.Name] = true
		c := Measure(d, 100)
		if c.Ns <= 0 {
			t.Errorf("%s: %v ns per operation", d.Name, c.Ns)
		}
		if d.Allocs && c.Allocs < 0 {
			t.Errorf("%s: %v allocations per operation", d.Name, c.Allocs)
		}
	}
}

// The ring's hot path is pinned at zero allocations by the repository's own
// gate; its driver must see the same, or it measures something else.
func TestRingDriverSeesZeroAllocs(t *testing.T) {
	if c := Measure(ringCycle, 10); c.Allocs > 0.01 {
		t.Errorf("ring.drv_cycle allocates %.3f per command, want 0", c.Allocs)
	}
}
