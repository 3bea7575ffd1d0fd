package pdu

import (
	"testing"

	"nvmeoaf/internal/nvme"
)

// FuzzDecode drives the PDU decoder with arbitrary bytes: it must never
// panic and must either return a PDU that re-encodes within bounds or an
// error, and a reused Decoder must agree with it. `go test` exercises the seed corpus; `go test -fuzz=FuzzDecode`
// explores further.
func FuzzDecode(f *testing.F) {
	// Seed with one valid encoding of every PDU type.
	seeds := []PDU{
		&ICReq{PFV: 0, HPDA: 4, MaxR2T: 16, AFCapab: true, SHMKey: 7},
		&ICResp{PFV: 0, AFEnabled: true, SHMKey: 9, SlotSize: 4096, SlotCount: 8},
		&CapsuleCmd{Cmd: nvme.NewRead(1, 1, 0, 8)},
		&CapsuleCmd{Cmd: nvme.NewWrite(2, 1, 0, 8), Data: []byte("payload")},
		&CapsuleCmd{Cmd: nvme.NewWrite(3, 1, 0, 8), VirtualLen: 4096},
		&CapsuleResp{Rsp: nvme.Completion{CID: 5}, IOTimeNs: 100},
		&Data{Dir: TypeC2HData, CID: 1, Payload: []byte("abcdefgh"), Last: true},
		&Data{Dir: TypeH2CData, CID: 2, VirtualLen: 128 << 10},
		&R2T{CID: 3, TTag: 4, Length: 4096},
		&SHMNotify{CID: 6, Slot: 2, Offset: 512, Length: 4096, Last: true},
		&SHMRelease{CID: 7, Slot: 3},
		&CmdBatch{Entries: []BatchEntry{
			{Cmd: nvme.NewRead(10, 1, 0, 8)},
			{Cmd: nvme.NewWrite(11, 1, 0, 8), Data: []byte("payload")},
			{Cmd: nvme.NewWrite(12, 1, 0, 8), VirtualLen: 4096},
		}},
		&Term{Dir: TypeH2CTermReq},
	}
	for _, s := range seeds {
		f.Add(Marshal(s))
	}
	// A few corrupted variants.
	f.Add([]byte{0xFF, 0xFF, 0xFF, 0xFF})
	f.Add([]byte{0x04, 0x80, 8, 0, 0xFF, 0xFF, 0xFF, 0x7F})

	// One decoder serves every input, as one connection's serves every
	// message: each must decode exactly as Decode decodes it.
	var dec Decoder
	f.Fuzz(func(t *testing.T, data []byte) {
		sameDecode(t, &dec, data)
		p, n, err := Decode(data)
		if err != nil {
			return
		}
		if n <= 0 || n > len(data) {
			t.Fatalf("consumed %d of %d", n, len(data))
		}
		// Whatever decoded must re-encode without panicking.
		out := Marshal(p)
		if len(out) == 0 {
			t.Fatal("empty re-encoding")
		}
		// And decode again to the same type.
		p2, _, err := Decode(out)
		if err != nil {
			t.Fatalf("re-decode failed: %v", err)
		}
		if p2.Type() != p.Type() {
			t.Fatalf("type changed: %v -> %v", p.Type(), p2.Type())
		}
	})
}

// FuzzDecodeCommand drives the SQE decoder.
func FuzzDecodeCommand(f *testing.F) {
	var buf [64]byte
	c := nvme.NewWrite(9, 1, 12345, 64)
	c.Encode(buf[:])
	f.Add(buf[:])
	f.Fuzz(func(t *testing.T, data []byte) {
		cmd, err := nvme.DecodeCommand(data)
		if err != nil {
			return
		}
		var out [64]byte
		cmd.Encode(out[:])
		cmd2, err := nvme.DecodeCommand(out[:])
		if err != nil || cmd2 != cmd {
			t.Fatalf("SQE not round-trip stable: %+v vs %+v (%v)", cmd, cmd2, err)
		}
	})
}
