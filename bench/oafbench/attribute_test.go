package main

import "testing"

func TestAttribute(t *testing.T) {
	cases := []struct {
		name  string
		stack []string // leaf first
		want  string
	}{
		{"leaf in a layer", []string{
			"nvmeoaf/internal/pdu.(*CapsuleCmd).Encode",
			"nvmeoaf/internal/transport.SendPDUs",
			"nvmeoaf/internal/session.(*Host).reactor",
		}, "pdu"},
		{"runtime cost lands on the layer that incurred it", []string{
			"runtime.mallocgc", "runtime.newobject",
			"nvmeoaf/internal/sim.(*Proc).Sleep",
			"nvmeoaf/internal/netsim.(*Endpoint).Send",
		}, "sim"},
		{"channel handoff under a sim frame", []string{
			"runtime.chansend", "runtime.chansend1",
			"nvmeoaf/internal/sim.(*Engine).resume",
			"nvmeoaf/internal/sim.(*Engine).RunUntil",
			"nvmeoaf/internal/exp.Run", "main.runOnce",
		}, "sim"},
		{"nested closure", []string{
			"runtime.memmove",
			"nvmeoaf/internal/session.(*Conn).StartReadTCP.func1.1",
			"nvmeoaf/internal/sim.(*Engine).spawn.func1",
		}, "session"},
		{"inlined callee comes before its caller", []string{
			"nvmeoaf/internal/stats.bucketIndex", // inlined into Record
			"nvmeoaf/internal/stats.(*Histogram).Record",
			"nvmeoaf/internal/perf.(*Stream).recordSample",
		}, "stats"},
		{"type arguments do not name the layer", []string{
			"nvmeoaf/internal/sim.(*Future[go.shape.*nvmeoaf/internal/transport.Result]).Resolve",
			"nvmeoaf/internal/transport.(*Pending).Finish",
		}, "sim"},
		{"repository packages that are not layers are walked past", []string{
			"nvmeoaf/internal/nvme.(*Command).Encode",
			"nvmeoaf/internal/pdu.(*CapsuleCmd).Encode",
		}, "pdu"},
		{"topology code alone is other", []string{
			"runtime.makemap", "nvmeoaf/internal/exp.Run", "main.runOnce", "main.main",
		}, bucketOther},
		{"a prefix of a layer name is not that layer", []string{
			"nvmeoaf/internal/simulator.Step",
		}, bucketOther},
		{"background mark worker", []string{
			"runtime.scanobject", "runtime.gcDrain", "runtime.gcBgMarkWorker.func2",
			"runtime.systemstack", "runtime.gcBgMarkWorker",
		}, bucketGC},
		{"scheduler on g0", []string{
			"runtime.futex", "runtime.futexsleep", "runtime.notesleep", "runtime.stopm",
			"runtime.findRunnable", "runtime.schedule", "runtime.park_m", "runtime.mcall",
		}, bucketSched},
		{"collector stopping an M counts as collector", []string{
			"runtime.gcstopm", "runtime.schedule", "runtime.mcall",
		}, bucketGC},
		{"system monitor on its own M", []string{"runtime.usleep", "runtime.sysmon", "runtime.mstart1"}, bucketSched},
		{"empty stack", nil, bucketOther},
	}
	for _, c := range cases {
		if got := attribute(c.stack); got != c.want {
			t.Errorf("%s: attribute = %q, want %q", c.name, got, c.want)
		}
	}
}

func TestLayerOf(t *testing.T) {
	for fn, want := range map[string]string{
		"nvmeoaf/internal/session.(*Conn).StartReadTCP.func1.1": "session",
		"nvmeoaf/internal/sim.NewQueue[...]":                    "sim",
		"nvmeoaf/internal/cache.New":                            "cache",
		"nvmeoaf/internal/exp.Run":                              "",
		"nvmeoaf/oaf.(*Queue).Read":                             "",
		"nvmeoaf/bench/layers.Measure":                          "",
		"runtime.mallocgc":                                      "",
	} {
		got, ok := layerOf(fn)
		if !ok {
			got = ""
		}
		if got != want {
			t.Errorf("layerOf(%q) = %q, want %q", fn, got, want)
		}
	}
}
