package pdu

import (
	"bytes"
	"reflect"
	"runtime"
	"testing"
	"testing/quick"

	"nvmeoaf/internal/nvme"
)

// roundTrip encodes p, decodes the bytes, and returns the decoded PDU.
func roundTrip(t *testing.T, p PDU) PDU {
	t.Helper()
	buf := Marshal(p)
	if len(buf) == 0 {
		t.Fatal("empty encoding")
	}
	got, n, err := Decode(buf)
	if err != nil {
		t.Fatalf("decode %v: %v", p.Type(), err)
	}
	if n != len(buf) {
		t.Fatalf("consumed %d of %d bytes", n, len(buf))
	}
	return got
}

func TestICReqRoundTrip(t *testing.T) {
	p := &ICReq{PFV: 0, HPDA: 4, MaxR2T: 16, AFCapab: true}
	got := roundTrip(t, p).(*ICReq)
	if *got != *p {
		t.Fatalf("got %+v want %+v", got, p)
	}
}

func TestICRespRoundTrip(t *testing.T) {
	p := &ICResp{
		PFV: 0, CPDA: 4, MaxH2CData: 128 << 10, AFEnabled: true,
		SHMKey: 0xDEADBEEF01234567, SHMSize: 256 << 20,
		SlotSize: 512 << 10, SlotCount: 128,
	}
	got := roundTrip(t, p).(*ICResp)
	if *got != *p {
		t.Fatalf("got %+v want %+v", got, p)
	}
}

func TestCapsuleCmdInCapsuleData(t *testing.T) {
	data := []byte("0123456789abcdef")
	p := &CapsuleCmd{Cmd: nvme.NewWrite(5, 1, 0, 1), Data: data}
	got := roundTrip(t, p).(*CapsuleCmd)
	if got.Cmd != p.Cmd {
		t.Fatalf("cmd mismatch: %+v vs %+v", got.Cmd, p.Cmd)
	}
	if !bytes.Equal(got.Data, data) {
		t.Fatal("in-capsule data mismatch")
	}
	if got.WireLen() != p.WireLen() {
		t.Fatalf("wire len %d vs %d", got.WireLen(), p.WireLen())
	}
}

func TestCapsuleCmdVirtualPayload(t *testing.T) {
	p := &CapsuleCmd{Cmd: nvme.NewWrite(5, 1, 0, 8), VirtualLen: 4096}
	if p.WireLen() <= 80 {
		t.Fatalf("wire len %d should include virtual payload", p.WireLen())
	}
	// Encoded bytes must be small even though the wire length is 4KB+.
	buf := Marshal(p)
	if len(buf) >= 4096 {
		t.Fatalf("virtual payload materialized: %d bytes", len(buf))
	}
	got := roundTrip(t, p).(*CapsuleCmd)
	if got.VirtualLen != 4096 || got.Data != nil {
		t.Fatalf("virtual len %d data %v", got.VirtualLen, got.Data)
	}
}

func TestCapsuleRespRoundTrip(t *testing.T) {
	p := &CapsuleResp{Rsp: nvme.Completion{Result: 7, SQHead: 3, SQID: 1, CID: 99, Status: nvme.StatusLBAOutOfRange}}
	got := roundTrip(t, p).(*CapsuleResp)
	if *got != *p {
		t.Fatalf("got %+v want %+v", got, p)
	}
}

func TestDataPDURealPayload(t *testing.T) {
	payload := bytes.Repeat([]byte{0xAB}, 1000)
	for _, dir := range []Type{TypeH2CData, TypeC2HData} {
		p := &Data{Dir: dir, CID: 12, TTag: 3, Offset: 4096, Last: true, Payload: payload}
		got := roundTrip(t, p).(*Data)
		if got.Dir != dir || got.CID != 12 || got.TTag != 3 || got.Offset != 4096 || !got.Last {
			t.Fatalf("%v header mismatch: %+v", dir, got)
		}
		if !bytes.Equal(got.Payload, payload) {
			t.Fatal("payload mismatch")
		}
	}
}

func TestDataPDUVirtualPayload(t *testing.T) {
	p := &Data{Dir: TypeC2HData, CID: 1, VirtualLen: 128 << 10}
	buf := Marshal(p)
	if len(buf) > 64 {
		t.Fatalf("virtual data materialized: %d bytes", len(buf))
	}
	if p.WireLen() != len(buf)+(128<<10) {
		t.Fatalf("wire len %d", p.WireLen())
	}
	got := roundTrip(t, p).(*Data)
	if got.VirtualLen != 128<<10 || got.Last {
		t.Fatalf("got %+v", got)
	}
}

func TestR2TRoundTrip(t *testing.T) {
	p := &R2T{CID: 42, TTag: 7, Offset: 128 << 10, Length: 128 << 10}
	got := roundTrip(t, p).(*R2T)
	if *got != *p {
		t.Fatalf("got %+v want %+v", got, p)
	}
}

func TestSHMNotifyRoundTrip(t *testing.T) {
	p := &SHMNotify{CID: 9, Slot: 77, Offset: 13 << 20, Length: 512 << 10, Last: true}
	got := roundTrip(t, p).(*SHMNotify)
	if *got != *p {
		t.Fatalf("got %+v want %+v", got, p)
	}
}

func TestSHMReleaseRoundTrip(t *testing.T) {
	p := &SHMRelease{CID: 5, Slot: 31}
	got := roundTrip(t, p).(*SHMRelease)
	if *got != *p {
		t.Fatalf("got %+v want %+v", got, p)
	}
}

func TestDecodeErrors(t *testing.T) {
	cases := [][]byte{
		nil,
		{0x04},                                   // short header
		{0xFF, 0, 8, 0, 8, 0, 0, 0},              // unknown type
		{0x00, 0, 8, 0, 4, 0, 0, 0},              // PLEN below header size
		{0x00, 0, 8, 0, 200, 0, 0, 0},            // PLEN beyond buffer
		{0x00, 0, 8, 0, 10, 0, 0, 0, 0, 0},       // ICReq body too short
		{0x09, 0, 8, 0, 12, 0, 0, 0, 0, 0, 0, 0}, // R2T body too short
	}
	for i, buf := range cases {
		if _, _, err := Decode(buf); err == nil {
			t.Errorf("case %d: expected decode error", i)
		}
	}
}

func TestTruncatedPayloadRejected(t *testing.T) {
	p := &Data{Dir: TypeC2HData, CID: 1, Payload: make([]byte, 100)}
	buf := Marshal(p)
	// Claim full PLEN but hand a shorter slice via an inner corruption:
	// shrink payload while keeping declared lengths.
	corrupted := append([]byte(nil), buf[:len(buf)-50]...)
	if _, _, err := Decode(corrupted); err == nil {
		t.Fatal("truncated payload accepted")
	}
}

func TestStreamOfPDUs(t *testing.T) {
	// Multiple PDUs back-to-back in one buffer decode sequentially, as a
	// TCP bytestream delivers them.
	var stream []byte
	pdus := []PDU{
		&ICReq{PFV: 0, MaxR2T: 4},
		&CapsuleCmd{Cmd: nvme.NewRead(1, 1, 0, 8)},
		&R2T{CID: 1, TTag: 2, Length: 4096},
		&SHMRelease{Slot: 5},
	}
	for _, p := range pdus {
		stream = p.Encode(stream)
	}
	off := 0
	for i, want := range pdus {
		got, n, err := Decode(stream[off:])
		if err != nil {
			t.Fatalf("pdu %d: %v", i, err)
		}
		if got.Type() != want.Type() {
			t.Fatalf("pdu %d: type %v want %v", i, got.Type(), want.Type())
		}
		off += n
	}
	if off != len(stream) {
		t.Fatalf("consumed %d of %d", off, len(stream))
	}
}

func TestTypeStrings(t *testing.T) {
	for _, typ := range []Type{TypeICReq, TypeICResp, TypeH2CTermReq, TypeC2HTermReq,
		TypeCapsuleCmd, TypeCapsuleResp, TypeH2CData, TypeC2HData, TypeR2T,
		TypeSHMNotify, TypeSHMRelease, Type(0xEE)} {
		if typ.String() == "" {
			t.Fatalf("empty string for type %#x", uint8(typ))
		}
	}
}

func TestR2TPropertyRoundTrip(t *testing.T) {
	f := func(cid, ttag uint16, off, length uint32) bool {
		p := &R2T{CID: cid, TTag: ttag, Offset: off, Length: length}
		got, n, err := Decode(Marshal(p))
		if err != nil || n != p.WireLen() {
			return false
		}
		return reflect.DeepEqual(got, p)
	}
	if err := quick.Check(f, nil); err != nil {
		t.Fatal(err)
	}
}

func TestSHMNotifyPropertyRoundTrip(t *testing.T) {
	f := func(cid uint16, slot uint32, off uint64, length uint32, last bool) bool {
		p := &SHMNotify{CID: cid, Slot: slot, Offset: off, Length: length, Last: last}
		got, _, err := Decode(Marshal(p))
		return err == nil && reflect.DeepEqual(got, p)
	}
	if err := quick.Check(f, nil); err != nil {
		t.Fatal(err)
	}
}

func TestCapsuleRespTimingTrailer(t *testing.T) {
	p := &CapsuleResp{
		Rsp:        nvme.Completion{CID: 4, Status: nvme.StatusSuccess},
		IOTimeNs:   123456789,
		TgtCommNs:  987654,
		TgtOtherNs: 42,
	}
	got := roundTrip(t, p).(*CapsuleResp)
	if *got != *p {
		t.Fatalf("got %+v want %+v", got, p)
	}
}

func TestCmdBatchRoundTrip(t *testing.T) {
	p := &CmdBatch{Entries: []BatchEntry{
		{Cmd: nvme.NewRead(1, 1, 0, 8)},
		{Cmd: nvme.NewWrite(2, 1, 512, 8), Data: []byte("in-capsule bytes")},
		{Cmd: nvme.NewWrite(3, 1, 1024, 8), VirtualLen: 128 << 10},
	}}
	got := roundTrip(t, p).(*CmdBatch)
	if len(got.Entries) != 3 {
		t.Fatalf("entries: got %d want 3", len(got.Entries))
	}
	for i := range p.Entries {
		if got.Entries[i].Cmd != p.Entries[i].Cmd {
			t.Fatalf("entry %d SQE mismatch: %+v vs %+v", i, got.Entries[i].Cmd, p.Entries[i].Cmd)
		}
	}
	if !bytes.Equal(got.Entries[1].Data, p.Entries[1].Data) {
		t.Fatalf("entry 1 data: got %q", got.Entries[1].Data)
	}
	if got.Entries[2].VirtualLen != 128<<10 || got.Entries[2].Data != nil {
		t.Fatalf("entry 2 virtual: %+v", got.Entries[2])
	}
	// The virtual payload is charged on the wire but never serialized.
	if wire, mat := p.WireLen(), len(Marshal(p)); wire-mat != 128<<10 {
		t.Fatalf("wire %d vs materialized %d: want virtual gap %d", wire, mat, 128<<10)
	}
	// The batch saves one common header per coalesced command vs. three
	// standalone capsules.
	solo := 0
	for i := range p.Entries {
		e := &p.Entries[i]
		solo += (&CapsuleCmd{Cmd: e.Cmd, Data: e.Data, VirtualLen: e.VirtualLen}).WireLen()
	}
	if saved := solo - p.WireLen(); saved != 2*headerSize-batchPrefixSize {
		t.Fatalf("header saving: got %d want %d", saved, 2*headerSize-batchPrefixSize)
	}
}

func TestCmdBatchEmptyAndTruncated(t *testing.T) {
	got := roundTrip(t, &CmdBatch{}).(*CmdBatch)
	if len(got.Entries) != 0 {
		t.Fatalf("empty batch decoded %d entries", len(got.Entries))
	}
	buf := Marshal(&CmdBatch{Entries: []BatchEntry{{Cmd: nvme.NewRead(1, 1, 0, 8)}}})
	for cut := len(buf) - 1; cut > 0; cut-- {
		trunc := append([]byte(nil), buf[:cut]...)
		// Patch PLEN down so only the entry section is short.
		if cut >= headerSize {
			if _, _, err := Decode(trunc); err == nil {
				t.Fatalf("truncation at %d not rejected", cut)
			}
		}
	}
}

func TestCmdBatchInStream(t *testing.T) {
	var buf []byte
	b := &CmdBatch{Entries: []BatchEntry{
		{Cmd: nvme.NewWrite(4, 1, 0, 8), VirtualLen: 4 << 10},
		{Cmd: nvme.NewRead(5, 1, 0, 8)},
	}}
	buf = b.Encode(buf)
	buf = (&CapsuleResp{Rsp: nvme.Completion{CID: 9}}).Encode(buf)
	p1, n, err := Decode(buf)
	if err != nil {
		t.Fatal(err)
	}
	if p1.Type() != TypeCmdBatch {
		t.Fatalf("first PDU %v", p1.Type())
	}
	p2, _, err := Decode(buf[n:])
	if err != nil {
		t.Fatal(err)
	}
	if p2.Type() != TypeCapsuleResp {
		t.Fatalf("second PDU %v", p2.Type())
	}
}

// TestDecodeDataBorrowsPayload is the codec's allocation budget: decoding
// a 128 KiB C2HData allocates the PDU struct and nothing else, because the
// payload is a view into the decoded buffer rather than a copy.
func TestDecodeDataBorrowsPayload(t *testing.T) {
	payload := make([]byte, 128<<10)
	for i := range payload {
		payload[i] = byte(i*7 + 3)
	}
	buf := Marshal(&Data{Dir: TypeC2HData, CID: 3, Last: true, Payload: payload})
	var got *Data
	allocs := testing.AllocsPerRun(100, func() {
		p, _, err := Decode(buf)
		if err != nil {
			t.Fatal(err)
		}
		got = p.(*Data)
	})
	if allocs != 1 {
		t.Fatalf("decoding a 128 KiB C2HData: %v allocations, want 1", allocs)
	}
	if !bytes.Equal(got.Payload, payload) {
		t.Fatal("payload mismatch")
	}
	if &got.Payload[0] != &buf[headerSize+16] {
		t.Fatal("decoded payload does not alias the input buffer")
	}
	if cap(got.Payload) != len(got.Payload) {
		t.Fatalf("payload cap %d > len %d: an append could overwrite the next PDU", cap(got.Payload), len(got.Payload))
	}
}

// TestDecodeInCapsuleDataCopies: in-capsule write data, alone or in a
// batch entry, is copied out, so it survives the input buffer being reused.
func TestDecodeInCapsuleDataCopies(t *testing.T) {
	data := []byte("in-capsule write payload")
	want := append([]byte(nil), data...)
	capsule := Marshal(&CapsuleCmd{Cmd: nvme.NewWrite(5, 1, 0, 1), Data: data})
	batch := Marshal(&CmdBatch{Entries: []BatchEntry{{Cmd: nvme.NewWrite(6, 1, 0, 1), Data: data}}})
	c, _, err := Decode(capsule)
	if err != nil {
		t.Fatal(err)
	}
	b, _, err := Decode(batch)
	if err != nil {
		t.Fatal(err)
	}
	for _, buf := range [][]byte{capsule, batch} {
		for i := range buf {
			buf[i] = 0xDB
		}
	}
	if got := c.(*CapsuleCmd).Data; !bytes.Equal(got, want) {
		t.Fatalf("CapsuleCmd data changed with its input: %q", got)
	}
	if got := b.(*CmdBatch).Entries[0].Data; !bytes.Equal(got, want) {
		t.Fatalf("CmdBatch entry data changed with its input: %q", got)
	}
}

// TestCmdBatchCountBeyondBody: a batch whose u16 count claims more entries
// than its body can hold is rejected without first allocating room for
// all of them (65535 entries would be ~6 MB per decode).
func TestCmdBatchCountBeyondBody(t *testing.T) {
	buf := []byte{
		uint8(TypeCmdBatch), 0, headerSize, 0, headerSize + batchPrefixSize, 0, 0, 0,
		0xFF, 0xFF, // count = 65535
		0, 0, 0, 0, // no materialized entries
	}
	if _, _, err := Decode(buf); err == nil {
		t.Fatal("CmdBatch claiming 65535 entries in an empty body accepted")
	}
	var before, after runtime.MemStats
	runtime.ReadMemStats(&before)
	for i := 0; i < 1000; i++ {
		Decode(buf)
	}
	runtime.ReadMemStats(&after)
	if n := after.TotalAlloc - before.TotalAlloc; n >= 1<<20 {
		t.Fatalf("1000 decodes of a 14-byte batch allocated %d bytes", n)
	}
}

// decodeEach decodes buf PDU by PDU with the allocating Decode.
func decodeEach(buf []byte) ([]PDU, error) {
	var out []PDU
	for len(buf) > 0 {
		p, n, err := Decode(buf)
		if err != nil {
			return nil, err
		}
		out = append(out, p)
		buf = buf[n:]
	}
	return out, nil
}

// sameDecode fails unless one Decoder's DecodeAll of buf equals, field by
// field (nil and empty slices told apart), what Decode makes of it.
func sameDecode(t *testing.T, dec *Decoder, buf []byte) {
	t.Helper()
	want, wantErr := decodeEach(buf)
	got, err := dec.DecodeAll(buf)
	if (err != nil) != (wantErr != nil) {
		t.Fatalf("DecodeAll error %v, Decode error %v", err, wantErr)
	}
	if len(got) != len(want) {
		t.Fatalf("DecodeAll gave %d PDUs, Decode %d", len(got), len(want))
	}
	for i := range want {
		if !reflect.DeepEqual(got[i], want[i]) {
			t.Fatalf("PDU %d: reused decoder %#v, fresh decode %#v", i, got[i], want[i])
		}
	}
}

// TestDecoderReuseMatchesDecode runs one Decoder over a sequence of
// messages in which each PDU type follows a value of the same type with
// other fields set — a real payload after a virtual one, no payload after
// a real one, a shorter batch after a longer one — so a value the decoder
// did not fully overwrite shows as a field left over from the last
// message.
func TestDecoderReuseMatchesDecode(t *testing.T) {
	msg := func(ps ...PDU) []byte {
		var buf []byte
		for _, p := range ps {
			buf = p.Encode(buf)
		}
		return buf
	}
	msgs := [][]byte{
		msg(
			&CapsuleCmd{Cmd: nvme.NewWrite(1, 1, 0, 1), Data: []byte("in-capsule")},
			&Data{Dir: TypeC2HData, CID: 1, TTag: 7, Offset: 512, Payload: []byte("payload"), Last: true},
			&CapsuleResp{Rsp: nvme.Completion{CID: 1, Status: nvme.StatusInvalidField}, IOTimeNs: 9, TgtCommNs: 8, TgtOtherNs: 7},
			&R2T{CID: 2, TTag: 2, Offset: 4096, Length: 8192},
			&SHMNotify{CID: 3, Slot: 4, Offset: 4096, Length: 512, Last: true},
			&SHMRelease{CID: 3, Slot: 4},
			&CmdBatch{Entries: []BatchEntry{
				{Cmd: nvme.NewWrite(10, 1, 0, 1), Data: []byte("abc")},
				{Cmd: nvme.NewRead(11, 1, 8, 8)},
				{Cmd: nvme.NewWrite(12, 1, 16, 8), VirtualLen: 4096},
			}},
		),
		msg(
			&CapsuleCmd{Cmd: nvme.NewWrite(5, 1, 8, 8), VirtualLen: 4096},
			&Data{Dir: TypeH2CData, CID: 5, VirtualLen: 4096},
			&CapsuleResp{Rsp: nvme.Completion{CID: 5}},
			&R2T{CID: 6},
			&SHMNotify{CID: 7},
			&SHMRelease{CID: 7},
			&CmdBatch{Entries: []BatchEntry{{Cmd: nvme.NewRead(13, 1, 0, 8)}}},
		),
		msg(
			&CapsuleCmd{Cmd: nvme.NewRead(8, 1, 0, 8)},
			&Data{Dir: TypeC2HData, CID: 8, Payload: []byte{}},
			&Data{Dir: TypeC2HData, CID: 8, Payload: []byte("x"), Last: true},
			&CmdBatch{},
			&ICResp{AFEnabled: true, SHMKey: 3, SlotSize: 4096, SlotCount: 2},
			&Term{Dir: TypeC2HTermReq},
		),
		{0x04, 0x00, 8, 0, 0xFF, 0, 0, 0}, // bad PLEN: an error, as with Decode
		msg(&Data{Dir: TypeC2HData, CID: 9, VirtualLen: 512}, &CmdBatch{Entries: []BatchEntry{
			{Cmd: nvme.NewWrite(14, 1, 0, 1), VirtualLen: 512},
			{Cmd: nvme.NewWrite(15, 1, 1, 1), Data: []byte("def")},
		}}),
	}
	var dec Decoder
	for round := 0; round < 2; round++ {
		for _, m := range msgs {
			sameDecode(t, &dec, m)
		}
	}
}
