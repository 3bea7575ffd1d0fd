// Package pdu implements the NVMe/TCP protocol data units exchanged
// between host and controller (ICReq/ICResp, command/response capsules,
// H2C/C2H data, R2T), plus the adaptive-fabric extension PDUs that carry
// shared-memory payload notifications out-of-band (§4.1, Figures 5-7 of
// the paper).
//
// Every PDU encodes to and decodes from real bytes with an 8-byte common
// header, following the NVMe/TCP transport specification layout. Bulk
// payloads may be "virtual": the transport then charges their size on the
// simulated wire without materializing the bytes, which keeps multi-
// gigabyte bandwidth runs within host memory.
package pdu

import (
	"encoding/binary"
	"fmt"

	"nvmeoaf/internal/nvme"
)

// Type identifies a PDU.
type Type uint8

// NVMe/TCP PDU types, plus adaptive-fabric extensions in the vendor-
// specific range.
const (
	TypeICReq       Type = 0x00
	TypeICResp      Type = 0x01
	TypeH2CTermReq  Type = 0x02
	TypeC2HTermReq  Type = 0x03
	TypeCapsuleCmd  Type = 0x04
	TypeCapsuleResp Type = 0x05
	TypeH2CData     Type = 0x06
	TypeC2HData     Type = 0x07
	TypeR2T         Type = 0x09

	// TypeSHMNotify announces a payload placed in a shared-memory slot
	// (either direction). It replaces H2CData/C2HData PDUs on the data
	// path when the adaptive fabric selects the shared-memory channel.
	TypeSHMNotify Type = 0x40
	// TypeSHMRelease returns a shared-memory slot to its owner after the
	// peer has consumed the payload.
	TypeSHMRelease Type = 0x41
	// TypeCmdBatch carries a train of NVMe commands in one PDU: the
	// doorbell-batched submission path packs up to BatchSize queued
	// commands (with optional in-capsule data per entry) behind a single
	// common header, saving one header plus one network message per
	// coalesced command.
	TypeCmdBatch Type = 0x42
)

func (t Type) String() string {
	switch t {
	case TypeICReq:
		return "ICReq"
	case TypeICResp:
		return "ICResp"
	case TypeH2CTermReq:
		return "H2CTermReq"
	case TypeC2HTermReq:
		return "C2HTermReq"
	case TypeCapsuleCmd:
		return "CapsuleCmd"
	case TypeCapsuleResp:
		return "CapsuleResp"
	case TypeH2CData:
		return "H2CData"
	case TypeC2HData:
		return "C2HData"
	case TypeR2T:
		return "R2T"
	case TypeSHMNotify:
		return "SHMNotify"
	case TypeSHMRelease:
		return "SHMRelease"
	case TypeCmdBatch:
		return "CmdBatch"
	default:
		return fmt.Sprintf("Type(0x%02x)", uint8(t))
	}
}

// headerSize is the NVMe/TCP common header length.
const headerSize = 8

// PDU is the interface implemented by all protocol data units.
type PDU interface {
	// Type returns the PDU type tag.
	Type() Type
	// Encode appends the serialized PDU (including common header) to dst.
	Encode(dst []byte) []byte
	// WireLen returns the total bytes this PDU occupies on the wire,
	// including virtual payload not materialized in Encode's output.
	WireLen() int
}

// putHeader appends the common header.
func putHeader(dst []byte, t Type, flags uint8, plen uint32) []byte {
	var h [headerSize]byte
	h[0] = uint8(t)
	h[1] = flags
	h[2] = headerSize
	binary.LittleEndian.PutUint32(h[4:], plen)
	return append(dst, h[:]...)
}

// Decode parses one PDU from buf and returns it along with the number of
// bytes consumed. A decoded H2CData/C2HData Payload borrows buf: it is
// valid only while buf is, and a caller that keeps the bytes longer copies
// them out. Every other PDU owns what it holds (in-capsule command data is
// copied). The PDU is allocated afresh; a connection decodes with a
// Decoder instead.
func Decode(buf []byte) (PDU, int, error) {
	var d Decoder
	return d.decode(buf)
}

// Decoder decodes messages into storage it keeps and reuses, so that a
// connection decoding message after message allocates nothing once its
// storage has grown to the largest message. What DecodeAll returns (the
// slice, its PDUs and their batch entries) is valid until the next
// DecodeAll on the same Decoder: a consumer copies what it keeps. Payloads
// borrow and in-capsule data is copied exactly as with Decode. ICReq,
// ICResp and Term, which are rare and kept by their consumers, are
// allocated afresh. The zero Decoder is ready to use.
type Decoder struct {
	out     []PDU
	cmds    []CapsuleCmd
	resps   []CapsuleResp
	data    []Data
	r2ts    []R2T
	notes   []SHMNotify
	rels    []SHMRelease
	batches []CmdBatch
}

// DecodeAll parses every PDU in buf (one network message) into d's
// storage, reclaiming what the previous DecodeAll returned.
func (d *Decoder) DecodeAll(buf []byte) ([]PDU, error) {
	d.out, d.cmds, d.resps, d.data = d.out[:0], d.cmds[:0], d.resps[:0], d.data[:0]
	d.r2ts, d.notes, d.rels, d.batches = d.r2ts[:0], d.notes[:0], d.rels[:0], d.batches[:0]
	for len(buf) > 0 {
		p, n, err := d.decode(buf)
		if err != nil {
			return nil, err
		}
		d.out = append(d.out, p)
		buf = buf[n:]
	}
	return d.out, nil
}

// Capsule returns batch entry e as a standalone command capsule held in
// d's storage, valid like the PDUs of the DecodeAll that produced e.
func (d *Decoder) Capsule(e *BatchEntry) *CapsuleCmd {
	c := next(&d.cmds)
	*c = CapsuleCmd{Cmd: e.Cmd, Data: e.Data, VirtualLen: e.VirtualLen}
	return c
}

// next extends *s by one element and returns it. Storage past the length
// is reused as it stands (a CmdBatch keeps its entries' backing array);
// every decode overwrites the whole value.
func next[T any](s *[]T) *T {
	if n := len(*s); n < cap(*s) {
		*s = (*s)[:n+1]
	} else {
		var zero T
		*s = append(*s, zero)
	}
	return &(*s)[len(*s)-1]
}

// decode parses the PDU at the head of buf into d's storage.
func (d *Decoder) decode(buf []byte) (PDU, int, error) {
	if len(buf) < headerSize {
		return nil, 0, fmt.Errorf("pdu: short header: %d bytes", len(buf))
	}
	t := Type(buf[0])
	flags := buf[1]
	plen := binary.LittleEndian.Uint32(buf[4:])
	// PLEN declares the wire length. PDUs with a virtual payload carry
	// only their fixed body in the byte stream; the payload portion is
	// modeled, not materialized.
	mat := int(plen)
	if flags&flagVirtual != 0 {
		switch t {
		case TypeCapsuleCmd:
			mat = headerSize + nvme.CommandSize + 4
		case TypeH2CData, TypeC2HData:
			mat = headerSize + 16
		case TypeCmdBatch:
			// Per-entry virtual payloads make the materialized size
			// independent of PLEN; the batch prefix declares it.
			if len(buf) < headerSize+batchPrefixSize {
				return nil, 0, fmt.Errorf("pdu: short CmdBatch prefix: %d bytes", len(buf))
			}
			mat = headerSize + batchPrefixSize + int(binary.LittleEndian.Uint32(buf[headerSize+2:]))
		default:
			return nil, 0, fmt.Errorf("pdu: virtual flag on non-data PDU %v", t)
		}
	}
	if plen < headerSize || mat > len(buf) {
		return nil, 0, fmt.Errorf("pdu: bad PLEN %d (have %d bytes)", plen, len(buf))
	}
	body := buf[headerSize:mat]
	var (
		p   PDU
		err error
	)
	switch t {
	case TypeICReq:
		v := new(ICReq)
		p, err = v, v.decode(body)
	case TypeICResp:
		v := new(ICResp)
		p, err = v, v.decode(body)
	case TypeCapsuleCmd:
		v := next(&d.cmds)
		p, err = v, v.decode(body, flags)
	case TypeCapsuleResp:
		v := next(&d.resps)
		p, err = v, v.decode(body)
	case TypeH2CData, TypeC2HData:
		v := next(&d.data)
		p, err = v, v.decode(t, body, flags)
	case TypeR2T:
		v := next(&d.r2ts)
		p, err = v, v.decode(body)
	case TypeH2CTermReq, TypeC2HTermReq:
		p = &Term{Dir: t}
	case TypeSHMNotify:
		v := next(&d.notes)
		p, err = v, v.decode(body, flags)
	case TypeSHMRelease:
		v := next(&d.rels)
		p, err = v, v.decode(body)
	case TypeCmdBatch:
		v := next(&d.batches)
		p, err = v, v.decode(body)
	default:
		return nil, 0, fmt.Errorf("pdu: unknown type 0x%02x", uint8(t))
	}
	if err != nil {
		return nil, 0, err
	}
	return p, mat, nil
}

// ICReq initializes an NVMe/TCP connection. The AF bit negotiates the
// adaptive fabric extension.
type ICReq struct {
	PFV     uint16 // protocol format version
	HPDA    uint8  // host PDU data alignment
	MaxR2T  uint32
	AFCapab bool // host supports the adaptive fabric extension
	// SHMKey names the shared-memory region the helper process hotplugged
	// for this client (0 = none). The target validates it against its own
	// mapping during the locality check (§4.2).
	SHMKey uint64
}

// Type implements PDU.
func (*ICReq) Type() Type { return TypeICReq }

// WireLen implements PDU.
func (*ICReq) WireLen() int { return headerSize + 24 }

// Encode implements PDU.
func (r *ICReq) Encode(dst []byte) []byte {
	dst = putHeader(dst, TypeICReq, 0, uint32(r.WireLen()))
	var b [24]byte
	binary.LittleEndian.PutUint16(b[0:], r.PFV)
	b[2] = r.HPDA
	binary.LittleEndian.PutUint32(b[4:], r.MaxR2T)
	if r.AFCapab {
		b[8] = 1
	}
	binary.LittleEndian.PutUint64(b[16:], r.SHMKey)
	return append(dst, b[:]...)
}

func (r *ICReq) decode(body []byte) error {
	if len(body) < 24 {
		return fmt.Errorf("pdu: short ICReq body: %d", len(body))
	}
	*r = ICReq{
		PFV:     binary.LittleEndian.Uint16(body[0:]),
		HPDA:    body[2],
		MaxR2T:  binary.LittleEndian.Uint32(body[4:]),
		AFCapab: body[8] == 1,
		SHMKey:  binary.LittleEndian.Uint64(body[16:]),
	}
	return nil
}

// ICResp completes connection initialization. When the target accepts the
// adaptive-fabric extension and a shared-memory region is available, it
// carries the region geometry the client must map.
type ICResp struct {
	PFV        uint16
	CPDA       uint8
	MaxH2CData uint32
	AFEnabled  bool   // adaptive fabric accepted
	SHMKey     uint64 // shared-memory region identifier (0 = none)
	SHMSize    uint64 // region size in bytes
	SlotSize   uint32 // double-buffer slot size
	SlotCount  uint32 // slots per direction
}

// Type implements PDU.
func (*ICResp) Type() Type { return TypeICResp }

// WireLen implements PDU.
func (*ICResp) WireLen() int { return headerSize + 36 }

// Encode implements PDU.
func (r *ICResp) Encode(dst []byte) []byte {
	dst = putHeader(dst, TypeICResp, 0, uint32(r.WireLen()))
	var b [36]byte
	le := binary.LittleEndian
	le.PutUint16(b[0:], r.PFV)
	b[2] = r.CPDA
	le.PutUint32(b[4:], r.MaxH2CData)
	if r.AFEnabled {
		b[8] = 1
	}
	le.PutUint64(b[12:], r.SHMKey)
	le.PutUint64(b[20:], r.SHMSize)
	le.PutUint32(b[28:], r.SlotSize)
	le.PutUint32(b[32:], r.SlotCount)
	return append(dst, b[:]...)
}

func (r *ICResp) decode(body []byte) error {
	if len(body) < 36 {
		return fmt.Errorf("pdu: short ICResp body: %d", len(body))
	}
	le := binary.LittleEndian
	*r = ICResp{
		PFV:        le.Uint16(body[0:]),
		CPDA:       body[2],
		MaxH2CData: le.Uint32(body[4:]),
		AFEnabled:  body[8] == 1,
		SHMKey:     le.Uint64(body[12:]),
		SHMSize:    le.Uint64(body[20:]),
		SlotSize:   le.Uint32(body[28:]),
		SlotCount:  le.Uint32(body[32:]),
	}
	return nil
}

// flagVirtual marks PDUs whose payload length is modeled but not carried.
const flagVirtual = 0x80

// CapsuleCmd carries one NVMe command, optionally with in-capsule data
// for small writes (§4.4.2: the in-capsule flow needs a single message).
type CapsuleCmd struct {
	Cmd nvme.Command
	// Data is in-capsule payload; nil when the data phase is separate.
	Data []byte
	// VirtualLen models in-capsule payload without materializing it.
	VirtualLen int
}

// Type implements PDU.
func (*CapsuleCmd) Type() Type { return TypeCapsuleCmd }

// dataLen returns the modeled in-capsule payload size.
func (c *CapsuleCmd) dataLen() int {
	if c.Data != nil {
		return len(c.Data)
	}
	return c.VirtualLen
}

// WireLen implements PDU.
func (c *CapsuleCmd) WireLen() int { return headerSize + nvme.CommandSize + 4 + c.dataLen() }

// Encode implements PDU.
func (c *CapsuleCmd) Encode(dst []byte) []byte {
	var flags uint8
	if c.Data == nil && c.VirtualLen > 0 {
		flags = flagVirtual
	}
	dst = putHeader(dst, TypeCapsuleCmd, flags, uint32(c.WireLen()))
	var sqe [nvme.CommandSize]byte
	c.Cmd.Encode(sqe[:])
	dst = append(dst, sqe[:]...)
	var dl [4]byte
	binary.LittleEndian.PutUint32(dl[:], uint32(c.dataLen()))
	dst = append(dst, dl[:]...)
	return append(dst, c.Data...)
}

func (c *CapsuleCmd) decode(body []byte, flags uint8) error {
	if len(body) < nvme.CommandSize+4 {
		return fmt.Errorf("pdu: short CapsuleCmd body: %d", len(body))
	}
	cmd, err := nvme.DecodeCommand(body)
	if err != nil {
		return err
	}
	dlen := binary.LittleEndian.Uint32(body[nvme.CommandSize:])
	*c = CapsuleCmd{Cmd: cmd}
	rest := body[nvme.CommandSize+4:]
	if flags&flagVirtual != 0 {
		c.VirtualLen = int(dlen)
	} else if dlen > 0 {
		if int(dlen) > len(rest) {
			return fmt.Errorf("pdu: capsule data truncated: want %d have %d", dlen, len(rest))
		}
		// Copied, unlike a Data payload: a target executes in-capsule write
		// data on a device worker that outlives the message.
		c.Data = append([]byte(nil), rest[:dlen]...)
	}
	return nil
}

// CapsuleResp carries one NVMe completion, plus a vendor-extension trailer
// with the target-side timing the latency-breakdown experiments report
// (Figures 3 and 12): device execution time and time the command's inbound
// messages spent in the fabric as observed by the target.
type CapsuleResp struct {
	Rsp nvme.Completion
	// IOTimeNs is the device (bdev) execution time in nanoseconds.
	IOTimeNs uint64
	// TgtCommNs is fabric transit time of host-to-target messages for
	// this command, measured at the target, in nanoseconds.
	TgtCommNs uint64
	// TgtOtherNs is target-side processing time outside device and
	// fabric (buffer management, copies), in nanoseconds.
	TgtOtherNs uint64
}

// Type implements PDU.
func (*CapsuleResp) Type() Type { return TypeCapsuleResp }

// WireLen implements PDU.
func (*CapsuleResp) WireLen() int { return headerSize + nvme.CompletionSize + 24 }

// Encode implements PDU.
func (c *CapsuleResp) Encode(dst []byte) []byte {
	dst = putHeader(dst, TypeCapsuleResp, 0, uint32(c.WireLen()))
	var cqe [nvme.CompletionSize]byte
	c.Rsp.Encode(cqe[:])
	dst = append(dst, cqe[:]...)
	var tr [24]byte
	le := binary.LittleEndian
	le.PutUint64(tr[0:], c.IOTimeNs)
	le.PutUint64(tr[8:], c.TgtCommNs)
	le.PutUint64(tr[16:], c.TgtOtherNs)
	return append(dst, tr[:]...)
}

func (c *CapsuleResp) decode(body []byte) error {
	cqe, err := nvme.DecodeCompletion(body)
	if err != nil {
		return err
	}
	if len(body) < nvme.CompletionSize+24 {
		return fmt.Errorf("pdu: short CapsuleResp trailer: %d", len(body))
	}
	le := binary.LittleEndian
	*c = CapsuleResp{
		Rsp:        cqe,
		IOTimeNs:   le.Uint64(body[nvme.CompletionSize:]),
		TgtCommNs:  le.Uint64(body[nvme.CompletionSize+8:]),
		TgtOtherNs: le.Uint64(body[nvme.CompletionSize+16:]),
	}
	return nil
}

// Data is an H2CData or C2HData PDU: one chunk of a command's payload.
type Data struct {
	Dir    Type   // TypeH2CData or TypeC2HData
	CID    uint16 // command this data belongs to
	TTag   uint16 // transfer tag from R2T (H2C only)
	Offset uint32 // byte offset within the command's buffer
	Last   bool   // last chunk of the transfer
	// Payload carries real bytes; VirtualLen models payload size instead.
	// A decoded Payload is a view into the decoded buffer (capacity
	// clipped to its length), not a copy.
	Payload    []byte
	VirtualLen int
}

// Type implements PDU.
func (d *Data) Type() Type { return d.Dir }

func (d *Data) payloadLen() int {
	if d.Payload != nil {
		return len(d.Payload)
	}
	return d.VirtualLen
}

// WireLen implements PDU.
func (d *Data) WireLen() int { return headerSize + 16 + d.payloadLen() }

const flagLast = 0x04

// Encode implements PDU.
func (d *Data) Encode(dst []byte) []byte {
	var flags uint8
	if d.Last {
		flags |= flagLast
	}
	if d.Payload == nil && d.VirtualLen > 0 {
		flags |= flagVirtual
	}
	dst = putHeader(dst, d.Dir, flags, uint32(d.WireLen()))
	var b [16]byte
	le := binary.LittleEndian
	le.PutUint16(b[0:], d.CID)
	le.PutUint16(b[2:], d.TTag)
	le.PutUint32(b[4:], d.Offset)
	le.PutUint32(b[8:], uint32(d.payloadLen()))
	dst = append(dst, b[:]...)
	return append(dst, d.Payload...)
}

func (d *Data) decode(t Type, body []byte, flags uint8) error {
	if len(body) < 16 {
		return fmt.Errorf("pdu: short data body: %d", len(body))
	}
	le := binary.LittleEndian
	*d = Data{
		Dir:    t,
		CID:    le.Uint16(body[0:]),
		TTag:   le.Uint16(body[2:]),
		Offset: le.Uint32(body[4:]),
		Last:   flags&flagLast != 0,
	}
	plen := le.Uint32(body[8:])
	rest := body[16:]
	if flags&flagVirtual != 0 {
		d.VirtualLen = int(plen)
	} else if plen > 0 {
		if int(plen) > len(rest) {
			return fmt.Errorf("pdu: data payload truncated: want %d have %d", plen, len(rest))
		}
		d.Payload = rest[:plen:plen]
	}
	return nil
}

// R2T is the target's ready-to-transfer grant for a write command's data
// (the conservative flow-control path for I/O above the in-capsule
// threshold, §4.4.2).
type R2T struct {
	CID    uint16
	TTag   uint16
	Offset uint32
	Length uint32
}

// Type implements PDU.
func (*R2T) Type() Type { return TypeR2T }

// WireLen implements PDU.
func (*R2T) WireLen() int { return headerSize + 12 }

// Encode implements PDU.
func (r *R2T) Encode(dst []byte) []byte {
	dst = putHeader(dst, TypeR2T, 0, uint32(r.WireLen()))
	var b [12]byte
	le := binary.LittleEndian
	le.PutUint16(b[0:], r.CID)
	le.PutUint16(b[2:], r.TTag)
	le.PutUint32(b[4:], r.Offset)
	le.PutUint32(b[8:], r.Length)
	return append(dst, b[:]...)
}

func (r *R2T) decode(body []byte) error {
	if len(body) < 12 {
		return fmt.Errorf("pdu: short R2T body: %d", len(body))
	}
	le := binary.LittleEndian
	*r = R2T{
		CID:    le.Uint16(body[0:]),
		TTag:   le.Uint16(body[2:]),
		Offset: le.Uint32(body[4:]),
		Length: le.Uint32(body[8:]),
	}
	return nil
}

// SHMNotify tells the peer that a payload for command CID sits in the
// shared-memory region at the given slot and byte range (step 4 in Fig 7).
// It travels out-of-band over TCP; the payload itself never touches the
// wire.
type SHMNotify struct {
	CID    uint16
	Slot   uint32
	Offset uint64 // byte offset within the region
	Length uint32
	Last   bool
}

// Type implements PDU.
func (*SHMNotify) Type() Type { return TypeSHMNotify }

// WireLen implements PDU.
func (*SHMNotify) WireLen() int { return headerSize + 20 }

// Encode implements PDU.
func (n *SHMNotify) Encode(dst []byte) []byte {
	var flags uint8
	if n.Last {
		flags |= flagLast
	}
	dst = putHeader(dst, TypeSHMNotify, flags, uint32(n.WireLen()))
	var b [20]byte
	le := binary.LittleEndian
	le.PutUint16(b[0:], n.CID)
	le.PutUint32(b[2:], n.Slot)
	le.PutUint64(b[6:], n.Offset)
	le.PutUint32(b[14:], n.Length)
	return append(dst, b[:]...)
}

func (n *SHMNotify) decode(body []byte, flags uint8) error {
	if len(body) < 20 {
		return fmt.Errorf("pdu: short SHMNotify body: %d", len(body))
	}
	le := binary.LittleEndian
	*n = SHMNotify{
		CID:    le.Uint16(body[0:]),
		Slot:   le.Uint32(body[2:]),
		Offset: le.Uint64(body[6:]),
		Length: le.Uint32(body[14:]),
		Last:   flags&flagLast != 0,
	}
	return nil
}

// SHMRelease returns a slot to its owning side once the payload has been
// consumed. In the naive (pre-flow-control) designs it doubles as the
// per-chunk credit acknowledgement of the conservative stop-and-wait
// transfer; the shared-memory flow control of §4.4.2 eliminates it
// entirely (credits live in shared state).
type SHMRelease struct {
	CID  uint16
	Slot uint32
}

// Type implements PDU.
func (*SHMRelease) Type() Type { return TypeSHMRelease }

// WireLen implements PDU.
func (*SHMRelease) WireLen() int { return headerSize + 6 }

// Encode implements PDU.
func (r *SHMRelease) Encode(dst []byte) []byte {
	dst = putHeader(dst, TypeSHMRelease, 0, uint32(r.WireLen()))
	var b [6]byte
	binary.LittleEndian.PutUint16(b[0:], r.CID)
	binary.LittleEndian.PutUint32(b[2:], r.Slot)
	return append(dst, b[:]...)
}

func (r *SHMRelease) decode(body []byte) error {
	if len(body) < 6 {
		return fmt.Errorf("pdu: short SHMRelease body: %d", len(body))
	}
	*r = SHMRelease{
		CID:  binary.LittleEndian.Uint16(body[0:]),
		Slot: binary.LittleEndian.Uint32(body[2:]),
	}
	return nil
}

// batchPrefixSize is the CmdBatch body prefix: u16 entry count + u32
// materialized length of the entries section.
const batchPrefixSize = 6

// entryVirtual marks one batch entry's payload as modeled-only in its
// length word.
const entryVirtual = uint32(1) << 31

// BatchEntry is one command inside a CmdBatch: a bare SQE plus optional
// in-capsule payload (real or virtual), exactly as a standalone
// CapsuleCmd would carry it but without the 8-byte common header.
type BatchEntry struct {
	Cmd nvme.Command
	// Data is in-capsule payload; nil when the data phase is separate.
	Data []byte
	// VirtualLen models in-capsule payload without materializing it.
	VirtualLen int
}

func (e *BatchEntry) dataLen() int {
	if e.Data != nil {
		return len(e.Data)
	}
	return e.VirtualLen
}

// CmdBatch is the doorbell-batched capsule train: N commands coalesced
// into one PDU, submitted with one network message and one reactor
// wakeup on the target. The wire layout is
//
//	[common header][u16 count][u32 matLen]
//	count × ([64-byte SQE][u32 dlen|virtual-bit][dlen payload bytes])
//
// where matLen is the materialized byte length of the entries section
// (virtual payloads are charged on the simulated wire via PLEN but never
// serialized).
type CmdBatch struct {
	Entries []BatchEntry
}

// Type implements PDU.
func (*CmdBatch) Type() Type { return TypeCmdBatch }

// WireLen implements PDU.
func (b *CmdBatch) WireLen() int {
	n := headerSize + batchPrefixSize
	for i := range b.Entries {
		n += nvme.CommandSize + 4 + b.Entries[i].dataLen()
	}
	return n
}

// matLen returns the materialized length of the entries section.
func (b *CmdBatch) matLen() (n int, virtual bool) {
	for i := range b.Entries {
		n += nvme.CommandSize + 4
		e := &b.Entries[i]
		if e.Data == nil && e.VirtualLen > 0 {
			virtual = true
		} else {
			n += len(e.Data)
		}
	}
	return n, virtual
}

// Encode implements PDU.
func (b *CmdBatch) Encode(dst []byte) []byte {
	matLen, virtual := b.matLen()
	var flags uint8
	if virtual {
		flags = flagVirtual
	}
	dst = putHeader(dst, TypeCmdBatch, flags, uint32(b.WireLen()))
	var pre [batchPrefixSize]byte
	binary.LittleEndian.PutUint16(pre[0:], uint16(len(b.Entries)))
	binary.LittleEndian.PutUint32(pre[2:], uint32(matLen))
	dst = append(dst, pre[:]...)
	for i := range b.Entries {
		e := &b.Entries[i]
		var sqe [nvme.CommandSize]byte
		e.Cmd.Encode(sqe[:])
		dst = append(dst, sqe[:]...)
		dl := uint32(e.dataLen())
		if e.Data == nil && e.VirtualLen > 0 {
			dl |= entryVirtual
		}
		var dlb [4]byte
		binary.LittleEndian.PutUint32(dlb[:], dl)
		dst = append(dst, dlb[:]...)
		dst = append(dst, e.Data...)
	}
	return dst
}

// decode fills b from body, reusing the backing array of b.Entries.
func (b *CmdBatch) decode(body []byte) error {
	if len(body) < batchPrefixSize {
		return fmt.Errorf("pdu: short CmdBatch body: %d", len(body))
	}
	count := int(binary.LittleEndian.Uint16(body[0:]))
	rest := body[batchPrefixSize:]
	// The wire's count is untrusted until the entries parse: size the
	// slice by what the body can hold, not by what it claims.
	if n := min(count, len(rest)/(nvme.CommandSize+4)); b.Entries == nil || cap(b.Entries) < n {
		b.Entries = make([]BatchEntry, 0, n)
	} else {
		b.Entries = b.Entries[:0]
	}
	for i := 0; i < count; i++ {
		if len(rest) < nvme.CommandSize+4 {
			return fmt.Errorf("pdu: CmdBatch entry %d truncated: %d bytes", i, len(rest))
		}
		cmd, err := nvme.DecodeCommand(rest)
		if err != nil {
			return err
		}
		dl := binary.LittleEndian.Uint32(rest[nvme.CommandSize:])
		rest = rest[nvme.CommandSize+4:]
		e := BatchEntry{Cmd: cmd}
		n := int(dl &^ entryVirtual)
		if dl&entryVirtual != 0 {
			e.VirtualLen = n
		} else if n > 0 {
			if n > len(rest) {
				return fmt.Errorf("pdu: CmdBatch entry %d data truncated: want %d have %d", i, n, len(rest))
			}
			// Copied for the same reason as a CapsuleCmd's in-capsule data.
			e.Data = append([]byte(nil), rest[:n]...)
			rest = rest[n:]
		}
		b.Entries = append(b.Entries, e)
	}
	if len(rest) != 0 {
		return fmt.Errorf("pdu: CmdBatch trailing bytes: %d", len(rest))
	}
	return nil
}

// Term requests orderly connection termination (H2CTermReq from the host,
// C2HTermReq from the controller).
type Term struct {
	Dir Type // TypeH2CTermReq or TypeC2HTermReq
}

// Type implements PDU.
func (t *Term) Type() Type { return t.Dir }

// WireLen implements PDU.
func (*Term) WireLen() int { return headerSize }

// Encode implements PDU.
func (t *Term) Encode(dst []byte) []byte {
	return putHeader(dst, t.Dir, 0, uint32(t.WireLen()))
}

// Marshal encodes a PDU into a fresh buffer.
func Marshal(p PDU) []byte { return p.Encode(nil) }
