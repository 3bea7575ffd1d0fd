package nvme

import (
	"errors"
	"testing"
	"testing/quick"
)

func TestCommandRoundTrip(t *testing.T) {
	orig := Command{
		Opcode: OpWrite, Flags: 0x40, CID: 0xBEEF, NSID: 3,
		CDW2: 1, CDW3: 2, Metadata: 0x1122334455667788,
		PRP1: 0xAABBCCDDEEFF0011, PRP2: 42,
		CDW10: 10, CDW11: 11, CDW12: 12, CDW13: 13, CDW14: 14, CDW15: 15,
	}
	buf := make([]byte, CommandSize)
	orig.Encode(buf)
	got, err := DecodeCommand(buf)
	if err != nil {
		t.Fatal(err)
	}
	if got != orig {
		t.Fatalf("round trip mismatch:\n got %+v\nwant %+v", got, orig)
	}
}

func TestCommandRoundTripProperty(t *testing.T) {
	f := func(c Command) bool {
		buf := make([]byte, CommandSize)
		c.Encode(buf)
		got, err := DecodeCommand(buf)
		return err == nil && got == c
	}
	if err := quick.Check(f, nil); err != nil {
		t.Fatal(err)
	}
}

func TestCompletionRoundTripProperty(t *testing.T) {
	f := func(result uint32, sqhead, sqid, cid uint16, status uint16) bool {
		c := Completion{Result: result, SQHead: sqhead, SQID: sqid, CID: cid,
			Status: Status(status & 0x7FFF)} // 15 usable bits after phase shift
		buf := make([]byte, CompletionSize)
		c.Encode(buf)
		got, err := DecodeCompletion(buf)
		return err == nil && got == c
	}
	if err := quick.Check(f, nil); err != nil {
		t.Fatal(err)
	}
}

func TestShortBuffersRejected(t *testing.T) {
	if _, err := DecodeCommand(make([]byte, 10)); err == nil {
		t.Fatal("short SQE accepted")
	}
	if _, err := DecodeCompletion(make([]byte, 3)); err == nil {
		t.Fatal("short CQE accepted")
	}
}

func TestReadWriteHelpers(t *testing.T) {
	c := NewRead(7, 1, 0x1_0000_0001, 32)
	if c.Opcode != OpRead || c.CID != 7 || c.NSID != 1 {
		t.Fatalf("header: %+v", c)
	}
	if c.SLBA() != 0x1_0000_0001 {
		t.Fatalf("slba = %#x", c.SLBA())
	}
	if c.NLB() != 32 {
		t.Fatalf("nlb = %d", c.NLB())
	}
	w := NewWrite(8, 2, 100, 1)
	if w.Opcode != OpWrite || w.NLB() != 1 || w.SLBA() != 100 {
		t.Fatalf("write: %+v", w)
	}
	fl := NewFlush(9, 2)
	if fl.IsIO() {
		t.Fatal("flush is not an I/O data command")
	}
	if !w.IsIO() || !c.IsIO() {
		t.Fatal("read/write must be I/O commands")
	}
}

func TestStatusStringsAndErrors(t *testing.T) {
	if StatusSuccess.IsError() {
		t.Fatal("success is not an error")
	}
	if StatusSuccess.Error() != nil {
		t.Fatal("success error should be nil")
	}
	for _, s := range []Status{StatusInvalidOpcode, StatusInvalidField, StatusCIDConflict,
		StatusDataTransferErr, StatusInternalError, StatusAbortRequested,
		StatusInvalidNamespace, StatusLBAOutOfRange, StatusCapacityExceeded,
		StatusNamespaceNotRdy, Status(0x123)} {
		if !s.IsError() {
			t.Fatalf("%v should be error", s)
		}
		err := s.Error()
		if err == nil || err.Error() == "" {
			t.Fatalf("%v produced empty error", s)
		}
		var se *StatusError
		if !errors.As(err, &se) || se.Status != s {
			t.Fatalf("error does not wrap status %v", s)
		}
		if s.String() == "" {
			t.Fatalf("empty string for %v", uint16(s))
		}
	}
}

func TestLBARange(t *testing.T) {
	const bs, blocks = 512, 1000
	ok := NewRead(1, 1, 10, 4)
	off, size, st := LBARange(&ok, bs, blocks)
	if st != StatusSuccess || off != 10*512 || size != 4*512 {
		t.Fatalf("got off=%d size=%d st=%v", off, size, st)
	}
	over := NewRead(1, 1, 999, 2)
	if _, _, st := LBARange(&over, bs, blocks); st != StatusLBAOutOfRange {
		t.Fatalf("status %v, want LBA out of range", st)
	}
	fl := NewFlush(1, 1)
	if _, _, st := LBARange(&fl, bs, blocks); st != StatusInvalidOpcode {
		t.Fatalf("status %v, want invalid opcode", st)
	}
}

func TestIdentifyRoundTrip(t *testing.T) {
	ctrl := IdentifyController{
		VID: 0x8086, SN: "OAF0001", MN: "NVMe-oAF Simulated Controller",
		NN: 4, MDTS: 5, IOQueues: 64,
	}
	got, err := DecodeIdentifyController(ctrl.Encode())
	if err != nil {
		t.Fatal(err)
	}
	if got != ctrl {
		t.Fatalf("controller round trip:\n got %+v\nwant %+v", got, ctrl)
	}
	ns := IdentifyNamespace{NSZE: 1 << 30, NCAP: 1 << 30, BlockSize: 512}
	gotNS, err := DecodeIdentifyNamespace(ns.Encode())
	if err != nil {
		t.Fatal(err)
	}
	if gotNS != ns {
		t.Fatalf("namespace round trip: %+v vs %+v", gotNS, ns)
	}
	if _, err := DecodeIdentifyController(make([]byte, 100)); err == nil {
		t.Fatal("short page accepted")
	}
	if _, err := DecodeIdentifyNamespace(make([]byte, 100)); err == nil {
		t.Fatal("short page accepted")
	}
}

func TestDiscoveryLogRoundTrip(t *testing.T) {
	entries := []DiscoveryEntry{
		{TrType: TrTypeTCP, SubNQN: "nqn.2022-06.io.oaf:a", TrAddr: "hostA"},
		{TrType: TrTypeAdaptive, SubNQN: "nqn.2022-06.io.oaf:b", TrAddr: "hostB"},
	}
	got, err := DecodeDiscoveryLog(EncodeDiscoveryLog(entries))
	if err != nil {
		t.Fatal(err)
	}
	if len(got) != 2 {
		t.Fatalf("entries %d", len(got))
	}
	for i := range entries {
		if got[i] != entries[i] {
			t.Fatalf("entry %d: %+v vs %+v", i, got[i], entries[i])
		}
	}
	if _, err := DecodeDiscoveryLog(nil); err == nil {
		t.Fatal("nil log accepted")
	}
	if _, err := DecodeDiscoveryLog(EncodeDiscoveryLog(entries)[:20]); err == nil {
		t.Fatal("truncated log accepted")
	}
	empty, err := DecodeDiscoveryLog(EncodeDiscoveryLog(nil))
	if err != nil || len(empty) != 0 {
		t.Fatalf("empty log: %v %v", empty, err)
	}
}
