package main

import (
	"strings"

	"nvmeoaf/bench/layers"
)

// Buckets for stacks that hold no frame of a layer (layers.Names): collector work,
// goroutine scheduling (the sim's process handoffs park and wake real
// goroutines), and the rest (exp topology code, this harness, idle runtime).
const (
	bucketGC    = "runtime.gc"
	bucketSched = "runtime.sched"
	bucketOther = "runtime.other"
)

var isLayer = func() map[string]bool {
	m := make(map[string]bool, len(layers.Names))
	for _, l := range layers.Names {
		m[l] = true
	}
	return m
}()

const internalPrefix = "nvmeoaf/internal/"

// layerOf returns the layer a function belongs to, from its fully qualified
// name: "nvmeoaf/internal/session.(*Conn).StartReadTCP.func1.1" is session.
// Type arguments of generic code ("sim.(*Future[go.shape.*nvmeoaf/internal/
// transport.Result]).Resolve") do not count: only the defining package does.
func layerOf(fn string) (string, bool) {
	if !strings.HasPrefix(fn, internalPrefix) {
		return "", false
	}
	pkg := fn[len(internalPrefix):]
	if i := strings.IndexAny(pkg, "./"); i >= 0 {
		pkg = pkg[:i]
	}
	return pkg, isLayer[pkg]
}

// Runtime frames that mark a layer-less stack as collector or scheduler work.
var (
	gcFrames = []string{
		"runtime.gc", "runtime.GC", "runtime.(*gcWork)", "runtime.bgsweep",
		"runtime.bgscavenge", "runtime.scanobject", "runtime.markroot",
		"runtime.sweepone", "runtime.wbBufFlush",
	}
	schedFrames = []string{
		"runtime.schedule", "runtime.findRunnable", "runtime.park_m",
		"runtime.goexit0", "runtime.mcall", "runtime.gosched_m",
		"runtime.goschedImpl", "runtime.mstart", "runtime.newproc",
		"runtime.ready", "runtime.goready", "runtime.wakep",
	}
)

func hasFrame(stack []string, prefixes []string) bool {
	for _, fn := range stack {
		for _, p := range prefixes {
			if strings.HasPrefix(fn, p) {
				return true
			}
		}
	}
	return false
}

// attribute charges one stack (leaf first) to the first frame, walking up
// from the leaf, that belongs to a layer. Runtime cost a layer incurs —
// malloc, channel send/receive, goroutine creation — therefore lands on that
// layer. A stack without such a frame goes to a runtime.* bucket.
func attribute(stack []string) string {
	for _, fn := range stack {
		if l, ok := layerOf(fn); ok {
			return l
		}
	}
	switch {
	case hasFrame(stack, gcFrames):
		return bucketGC
	case hasFrame(stack, schedFrames):
		return bucketSched
	}
	return bucketOther
}
