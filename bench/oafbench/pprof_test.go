package main

import (
	"bytes"
	"compress/gzip"
	"os"
	"reflect"
	"testing"
)

// testdata/tcp4k.cpu.pb.gz is a real runtime/pprof CPU profile of a 250 ms
// tcp-25g 4 KiB read window (17 samples at 100 Hz). The expectations below
// were checked against `go tool pprof -traces` of the same file.
func TestReadProfileFixture(t *testing.T) {
	f, err := os.Open("testdata/tcp4k.cpu.pb.gz")
	if err != nil {
		t.Fatal(err)
	}
	defer f.Close()
	samples, err := readProfile(f)
	if err != nil {
		t.Fatal(err)
	}
	if len(samples) != 17 {
		t.Fatalf("%d samples, want 17", len(samples))
	}
	byBucket := map[string]int64{}
	for i, s := range samples {
		if !reflect.DeepEqual(s.Values, []int64{1, 10_000_000}) {
			t.Errorf("sample %d: values %v, want one sample of 10 ms", i, s.Values)
		}
		byBucket[attribute(s.Stack)] += s.Values[1]
	}
	// Leaf first; resume and Run are inlined frames, which the profile stores
	// as extra lines of their caller's location.
	wantStack := []string{
		"runtime.gopark", "runtime.chanrecv", "runtime.chanrecv1",
		"nvmeoaf/internal/sim.(*Engine).resume", "nvmeoaf/internal/sim.(*Engine).RunUntil",
		"nvmeoaf/internal/sim.(*Engine).Run", "nvmeoaf/internal/exp.Run",
		"main.main", "runtime.main",
	}
	if !reflect.DeepEqual(samples[0].Stack, wantStack) {
		t.Errorf("first stack:\n got %q\nwant %q", samples[0].Stack, wantStack)
	}
	const ms = 1_000_000
	want := map[string]int64{"sim": 100 * ms, "pdu": 20 * ms, "ssd": 10 * ms, "stats": 10 * ms, bucketSched: 30 * ms}
	if !reflect.DeepEqual(byBucket, want) {
		t.Errorf("attributed CPU time:\n got %v\nwant %v", byBucket, want)
	}
}

// Damaged input is an error, never a panic or a silent empty profile.
func TestReadProfileMalformed(t *testing.T) {
	if _, err := readProfile(bytes.NewReader([]byte("not gzip"))); err == nil {
		t.Error("plain bytes were accepted")
	}
	raw, err := os.ReadFile("testdata/tcp4k.cpu.pb.gz")
	if err != nil {
		t.Fatal(err)
	}
	zr, err := gzip.NewReader(bytes.NewReader(raw))
	if err != nil {
		t.Fatal(err)
	}
	var proto bytes.Buffer
	if _, err := proto.ReadFrom(zr); err != nil {
		t.Fatal(err)
	}
	for _, cut := range []int{1, 7, proto.Len() / 2, proto.Len() - 1} {
		var z bytes.Buffer
		zw := gzip.NewWriter(&z)
		zw.Write(proto.Bytes()[:cut])
		zw.Close()
		if _, err := readProfile(&z); err == nil {
			t.Errorf("a profile cut at byte %d of %d was accepted", cut, proto.Len())
		}
	}
}
