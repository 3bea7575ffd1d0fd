package figures

// Calibration probes: log each figure's quick-window series so shapes
// can be compared against the paper. The real shape assertions live in
// figures_test.go, whose points the shared runner reuses here.

import "testing"

func TestCalibFig8(t *testing.T) { t.Log("\n" + Format(figure(t, "8"))) }

func TestCalibFig9(t *testing.T) { t.Log("\n" + Format(figure(t, "9"))) }

func TestCalibFig10(t *testing.T) { t.Log("\n" + Format(figure(t, "10"))) }

func TestCalibFig13(t *testing.T) { t.Log("\n" + Format(figure(t, "13"))) }

func TestCalibFig14(t *testing.T) {
	if testing.Short() {
		t.Skip("slow sweep; run without -short for the full shape check")
	}
	t.Log("\n" + Format(figure(t, "14")))
}

func TestCalibFig15(t *testing.T) { t.Log("\n" + Format(figure(t, "15"))) }
