// Package nvme implements the NVMe protocol structures shared by the host
// and controller sides of the NVMe-oF stack: 64-byte submission queue
// entries, 16-byte completion queue entries, opcodes, status codes, and
// identify data. Queue state (who holds a CID) is internal/session's.
//
// Encodings follow the NVMe 1.4 base specification layout so that capsules
// moving through the fabric are real protocol bytes.
package nvme

import (
	"encoding/binary"
	"fmt"
)

// I/O command set opcodes.
const (
	OpFlush uint8 = 0x00
	OpWrite uint8 = 0x01
	OpRead  uint8 = 0x02
)

// Admin command opcodes (subset used by the fabric).
const (
	AdminGetLogPage    uint8 = 0x02
	AdminIdentify      uint8 = 0x06
	AdminKeepAlive     uint8 = 0x18
	FabricsCommandType uint8 = 0x7F
)

// CommandSize is the size of an encoded submission queue entry.
const CommandSize = 64

// CompletionSize is the size of an encoded completion queue entry.
const CompletionSize = 16

// Command is an NVMe submission queue entry (SQE).
type Command struct {
	Opcode   uint8
	Flags    uint8
	CID      uint16
	NSID     uint32
	CDW2     uint32
	CDW3     uint32
	Metadata uint64
	PRP1     uint64 // data pointer; carries buffer/slot references in-fabric
	PRP2     uint64
	CDW10    uint32
	CDW11    uint32
	CDW12    uint32
	CDW13    uint32
	CDW14    uint32
	CDW15    uint32
}

// NewRead builds a read command for nlb logical blocks starting at slba.
func NewRead(cid uint16, nsid uint32, slba uint64, nlb uint32) Command {
	return Command{
		Opcode: OpRead, CID: cid, NSID: nsid,
		CDW10: uint32(slba), CDW11: uint32(slba >> 32),
		CDW12: nlb - 1, // 0's-based per spec
	}
}

// NewWrite builds a write command for nlb logical blocks starting at slba.
func NewWrite(cid uint16, nsid uint32, slba uint64, nlb uint32) Command {
	c := NewRead(cid, nsid, slba, nlb)
	c.Opcode = OpWrite
	return c
}

// NewFlush builds a flush command.
func NewFlush(cid uint16, nsid uint32) Command {
	return Command{Opcode: OpFlush, CID: cid, NSID: nsid}
}

// SLBA returns the starting logical block address of a read/write command.
func (c *Command) SLBA() uint64 {
	return uint64(c.CDW10) | uint64(c.CDW11)<<32
}

// NLB returns the number of logical blocks of a read/write command.
func (c *Command) NLB() uint32 { return c.CDW12&0xFFFF + 1 }

// IsIO reports whether the opcode is a data-carrying I/O command.
func (c *Command) IsIO() bool { return c.Opcode == OpRead || c.Opcode == OpWrite }

// Encode serializes the command into buf, which must hold CommandSize
// bytes; it returns the filled prefix.
func (c *Command) Encode(buf []byte) []byte {
	_ = buf[CommandSize-1]
	le := binary.LittleEndian
	buf[0] = c.Opcode
	buf[1] = c.Flags
	le.PutUint16(buf[2:], c.CID)
	le.PutUint32(buf[4:], c.NSID)
	le.PutUint32(buf[8:], c.CDW2)
	le.PutUint32(buf[12:], c.CDW3)
	le.PutUint64(buf[16:], c.Metadata)
	le.PutUint64(buf[24:], c.PRP1)
	le.PutUint64(buf[32:], c.PRP2)
	le.PutUint32(buf[40:], c.CDW10)
	le.PutUint32(buf[44:], c.CDW11)
	le.PutUint32(buf[48:], c.CDW12)
	le.PutUint32(buf[52:], c.CDW13)
	le.PutUint32(buf[56:], c.CDW14)
	le.PutUint32(buf[60:], c.CDW15)
	return buf[:CommandSize]
}

// DecodeCommand parses a submission queue entry.
func DecodeCommand(buf []byte) (Command, error) {
	if len(buf) < CommandSize {
		return Command{}, fmt.Errorf("nvme: short SQE: %d bytes", len(buf))
	}
	le := binary.LittleEndian
	return Command{
		Opcode:   buf[0],
		Flags:    buf[1],
		CID:      le.Uint16(buf[2:]),
		NSID:     le.Uint32(buf[4:]),
		CDW2:     le.Uint32(buf[8:]),
		CDW3:     le.Uint32(buf[12:]),
		Metadata: le.Uint64(buf[16:]),
		PRP1:     le.Uint64(buf[24:]),
		PRP2:     le.Uint64(buf[32:]),
		CDW10:    le.Uint32(buf[40:]),
		CDW11:    le.Uint32(buf[44:]),
		CDW12:    le.Uint32(buf[48:]),
		CDW13:    le.Uint32(buf[52:]),
		CDW14:    le.Uint32(buf[56:]),
		CDW15:    le.Uint32(buf[60:]),
	}, nil
}

// Completion is an NVMe completion queue entry (CQE).
type Completion struct {
	Result uint32 // command-specific DW0
	SQHead uint16
	SQID   uint16
	CID    uint16
	Status Status
}

// Encode serializes the completion into buf, which must hold
// CompletionSize bytes; it returns the filled prefix.
func (c *Completion) Encode(buf []byte) []byte {
	_ = buf[CompletionSize-1]
	le := binary.LittleEndian
	le.PutUint32(buf[0:], c.Result)
	le.PutUint32(buf[4:], 0)
	le.PutUint16(buf[8:], c.SQHead)
	le.PutUint16(buf[10:], c.SQID)
	le.PutUint16(buf[12:], c.CID)
	le.PutUint16(buf[14:], uint16(c.Status)<<1) // bit 0 is the phase tag
	return buf[:CompletionSize]
}

// DecodeCompletion parses a completion queue entry.
func DecodeCompletion(buf []byte) (Completion, error) {
	if len(buf) < CompletionSize {
		return Completion{}, fmt.Errorf("nvme: short CQE: %d bytes", len(buf))
	}
	le := binary.LittleEndian
	return Completion{
		Result: le.Uint32(buf[0:]),
		SQHead: le.Uint16(buf[8:]),
		SQID:   le.Uint16(buf[10:]),
		CID:    le.Uint16(buf[12:]),
		Status: Status(le.Uint16(buf[14:]) >> 1),
	}, nil
}

// LBARange validates a read/write command against a namespace geometry
// and converts it into a byte offset and size.
func LBARange(cmd *Command, blockSize int, blocks int64) (offset int64, size int, status Status) {
	if !cmd.IsIO() {
		return 0, 0, StatusInvalidOpcode
	}
	slba := cmd.SLBA()
	nlb := cmd.NLB()
	if nlb == 0 {
		return 0, 0, StatusInvalidField
	}
	if slba+uint64(nlb) > uint64(blocks) {
		return 0, 0, StatusLBAOutOfRange
	}
	return int64(slba) * int64(blockSize), int(nlb) * blockSize, StatusSuccess
}
