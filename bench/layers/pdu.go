package layers

import (
	"nvmeoaf/internal/nvme"
	"nvmeoaf/internal/pdu"
)

// pduCodec4k: encode a command capsule and a data PDU with a real 4 KiB
// payload, then decode both — the per-message codec work of a 4 KiB write
// carried with its bytes.
var pduCodec4k = Driver{Name: "pdu.drv_codec4k", Allocs: true, Ops: 100_000, Prepare: func() func(int) {
	payload := make([]byte, 4096)
	for i := range payload {
		payload[i] = byte(i)
	}
	var buf []byte
	return func(n int) {
		for i := 0; i < n; i++ {
			cmd := pdu.CapsuleCmd{Cmd: nvme.NewWrite(uint16(i), 1, uint64(i), 8)}
			data := pdu.Data{Dir: pdu.TypeH2CData, CID: uint16(i), Last: true, Payload: payload}
			buf = data.Encode(cmd.Encode(buf[:0]))
			rest := buf
			for len(rest) > 0 {
				_, used, err := pdu.Decode(rest)
				if err != nil {
					panic(err)
				}
				rest = rest[used:]
			}
		}
	}
}}
