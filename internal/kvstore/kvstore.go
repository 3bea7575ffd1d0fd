// Package kvstore implements a log-structured key-value store on one
// NVMe-oF namespace — the class of application (Crail-KV, KV-SSD stacks,
// RocksDB backends) the paper's related work positions NVMe-oF under.
// It demonstrates the adaptive fabric as a drop-in storage backend for a
// latency-sensitive workload beyond HDF5.
//
// Design: an append-only record log with an in-memory index, group-commit
// write buffering (small puts coalesce into one fabric write, the same
// lever as the VOL's coalescer), tombstone deletes, zone-alternating
// compaction, and crash recovery by log scan.
package kvstore

import (
	"encoding/binary"
	"fmt"

	"nvmeoaf/internal/blockfs"
	"nvmeoaf/internal/sim"
)

const (
	recordHeaderLen = 12 // klen u32 | vlen u32 | crc-ish tag u32
	tombstoneVLen   = 0xFFFFFFFF
	recordMagic     = 0x4B56A55A
	// zoneAlign keeps zone boundaries block aligned.
	zoneAlign = 4096
)

// Config tunes the store.
type Config struct {
	// GroupCommitBytes buffers puts until this many bytes accumulate
	// (or Flush is called); 0 disables buffering.
	GroupCommitBytes int
}

// entryRef locates a live record's value on the device.
type entryRef struct {
	off  int64 // record offset
	vlen int
	klen int
}

// Store is one open key-value store.
type Store struct {
	f   *blockfs.File
	cfg Config

	index map[string]entryRef
	// zones: the log lives in one half of the namespace at a time;
	// compaction rewrites live data into the other half.
	zoneSize int64
	zone     int   // 0 or 1
	head     int64 // append cursor within the active zone

	// group-commit buffer
	buf     []byte
	bufBase int64

	// Puts, Gets, Deletes, Compactions count operations.
	Puts, Gets, Deletes, Compactions int64
}

// Open creates an empty store over f (use Recover to load an existing
// log).
func Open(f *blockfs.File, cfg Config) *Store {
	zone := f.Size / 2 / zoneAlign * zoneAlign
	return &Store{
		f:        f,
		cfg:      cfg,
		index:    make(map[string]entryRef),
		zoneSize: zone,
		head:     0,
	}
}

// zoneBase returns the active zone's device offset.
func (s *Store) zoneBase() int64 { return int64(s.zone) * s.zoneSize }

// encodeRecord appends one record to dst.
func encodeRecord(dst []byte, key string, value []byte, tombstone bool) []byte {
	var hdr [recordHeaderLen]byte
	binary.LittleEndian.PutUint32(hdr[0:], uint32(len(key)))
	vlen := uint32(len(value))
	if tombstone {
		vlen = tombstoneVLen
	}
	binary.LittleEndian.PutUint32(hdr[4:], vlen)
	binary.LittleEndian.PutUint32(hdr[8:], recordMagic^uint32(len(key))^vlen)
	dst = append(dst, hdr[:]...)
	dst = append(dst, key...)
	if !tombstone {
		dst = append(dst, value...)
	}
	return dst
}

// recordSize returns the on-log size of a record.
func recordSize(klen, vlen int, tombstone bool) int {
	if tombstone {
		return recordHeaderLen + klen
	}
	return recordHeaderLen + klen + vlen
}

// Put stores key=value. The record lands in the group-commit buffer and
// becomes durable at the next Flush (or when the buffer fills).
func (s *Store) Put(p *sim.Proc, key string, value []byte) error {
	if len(key) == 0 {
		return fmt.Errorf("kvstore: empty key")
	}
	return s.append(p, key, value, false)
}

// Delete removes key by writing a tombstone.
func (s *Store) Delete(p *sim.Proc, key string) error {
	if _, ok := s.index[key]; !ok {
		return nil
	}
	if err := s.append(p, key, nil, true); err != nil {
		return err
	}
	delete(s.index, key)
	s.Deletes++
	return nil
}

// append adds a record to the log.
func (s *Store) append(p *sim.Proc, key string, value []byte, tombstone bool) error {
	size := recordSize(len(key), len(value), tombstone)
	if s.logUsage()+int64(size) > s.zoneSize {
		return fmt.Errorf("kvstore: zone full (%d bytes); compact first", s.zoneSize)
	}
	if s.buf == nil {
		s.bufBase = s.head
	}
	recOff := s.bufBase + int64(len(s.buf))
	s.buf = encodeRecord(s.buf, key, value, tombstone)
	s.head = s.bufBase + int64(len(s.buf))
	if !tombstone {
		s.index[key] = entryRef{off: recOff, vlen: len(value), klen: len(key)}
		s.Puts++
	}
	if s.cfg.GroupCommitBytes <= 0 || len(s.buf) >= s.cfg.GroupCommitBytes {
		return s.Flush(p)
	}
	return nil
}

// Flush makes buffered records durable with one (block-padded) fabric
// write — the group commit.
func (s *Store) Flush(p *sim.Proc) error {
	if len(s.buf) == 0 {
		return nil
	}
	start := s.bufBase / zoneAlign * zoneAlign
	end := (s.bufBase + int64(len(s.buf)) + zoneAlign - 1) / zoneAlign * zoneAlign
	padded := make([]byte, end-start)
	// Re-read the leading partial block so neighbours survive.
	if s.bufBase > start {
		if err := s.f.ReadAt(p, s.zoneBase()+start, padded[:zoneAlign], zoneAlign); err != nil {
			return err
		}
	}
	copy(padded[s.bufBase-start:], s.buf)
	if err := s.f.WriteAt(p, s.zoneBase()+start, padded, len(padded)); err != nil {
		return err
	}
	s.buf = nil
	return nil
}

// Get returns the value for key, or ok=false.
func (s *Store) Get(p *sim.Proc, key string) ([]byte, bool, error) {
	ref, ok := s.index[key]
	if !ok {
		return nil, false, nil
	}
	s.Gets++
	// Serve from the unflushed buffer when the record is still buffered.
	if s.buf != nil && ref.off >= s.bufBase {
		base := ref.off - s.bufBase
		v := s.buf[base+int64(recordHeaderLen)+int64(ref.klen) : base+int64(recordHeaderLen)+int64(ref.klen)+int64(ref.vlen)]
		return append([]byte(nil), v...), true, nil
	}
	out := make([]byte, ref.vlen)
	off := s.zoneBase() + ref.off + int64(recordHeaderLen) + int64(ref.klen)
	if err := s.f.ReadAt(p, off, out, len(out)); err != nil {
		return nil, false, err
	}
	return out, true, nil
}

// Len returns the number of live keys.
func (s *Store) Len() int { return len(s.index) }

// logUsage returns bytes consumed in the active zone.
func (s *Store) logUsage() int64 { return s.head }

// Compact rewrites live records into the other zone, reclaiming garbage
// from overwrites and deletes.
func (s *Store) Compact(p *sim.Proc) error {
	if err := s.Flush(p); err != nil {
		return err
	}
	dst := 1 - s.zone
	dstBase := int64(dst) * s.zoneSize
	var out []byte
	newIndex := make(map[string]entryRef, len(s.index))
	for key, ref := range s.index {
		val := make([]byte, ref.vlen)
		off := s.zoneBase() + ref.off + int64(recordHeaderLen) + int64(ref.klen)
		if err := s.f.ReadAt(p, off, val, len(val)); err != nil {
			return err
		}
		newIndex[key] = entryRef{off: int64(len(out)), vlen: ref.vlen, klen: ref.klen}
		out = encodeRecord(out, key, val, false)
	}
	padded := (int64(len(out)) + zoneAlign - 1) / zoneAlign * zoneAlign
	if padded > 0 {
		buf := make([]byte, padded)
		copy(buf, out)
		if err := s.f.WriteAt(p, dstBase, buf, len(buf)); err != nil {
			return err
		}
	}
	s.zone = dst
	s.head = int64(len(out))
	s.index = newIndex
	s.buf = nil
	s.Compactions++
	return nil
}

// Recover rebuilds the index by scanning the log in the given zone up to
// the first invalid record — the crash-recovery path.
func Recover(p *sim.Proc, f *blockfs.File, cfg Config, zone int) (*Store, error) {
	s := Open(f, cfg)
	s.zone = zone
	base := s.zoneBase()
	var off int64
	hdr := make([]byte, recordHeaderLen)
	for off+recordHeaderLen <= s.zoneSize {
		if err := f.ReadAt(p, base+off, hdr, recordHeaderLen); err != nil {
			return nil, err
		}
		klen := binary.LittleEndian.Uint32(hdr[0:])
		vlen := binary.LittleEndian.Uint32(hdr[4:])
		tag := binary.LittleEndian.Uint32(hdr[8:])
		if tag != recordMagic^klen^vlen || klen == 0 || klen > 64<<10 {
			break // end of log (or torn record)
		}
		tombstone := vlen == tombstoneVLen
		dataLen := int64(klen)
		if !tombstone {
			dataLen += int64(vlen)
		}
		if off+recordHeaderLen+dataLen > s.zoneSize {
			break
		}
		keyBuf := make([]byte, klen)
		if err := f.ReadAt(p, base+off+recordHeaderLen, keyBuf, int(klen)); err != nil {
			return nil, err
		}
		key := string(keyBuf)
		if tombstone {
			delete(s.index, key)
		} else {
			s.index[key] = entryRef{off: off, vlen: int(vlen), klen: int(klen)}
		}
		off += recordHeaderLen + dataLen
	}
	s.head = off
	return s, nil
}
