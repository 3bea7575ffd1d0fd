package main

import (
	"compress/gzip"
	"errors"
	"fmt"
	"io"
)

// A minimal reader for the gzipped profile.proto that runtime/pprof writes,
// so the traced pass needs neither `go tool pprof` nor a module outside the
// standard library. It keeps only what attribution needs: per sample, the
// function names of the stack (leaf first, inlined frames expanded) and the
// values.

// profSample is one stack of a CPU profile with its values
// (samples/count, cpu/nanoseconds for Go CPU profiles).
type profSample struct {
	Stack  []string
	Values []int64
}

// protoBuf walks one protobuf message.
type protoBuf struct{ b []byte }

var errProto = errors.New("pprof: malformed profile")

func (p *protoBuf) varint() (uint64, error) {
	var v uint64
	for shift := uint(0); shift < 64; shift += 7 {
		if len(p.b) == 0 {
			return 0, errProto
		}
		c := p.b[0]
		p.b = p.b[1:]
		v |= uint64(c&0x7f) << shift
		if c < 0x80 {
			return v, nil
		}
	}
	return 0, errProto
}

// field reads the next field: for wire type 0 the value is in v, for wire
// type 2 the bytes are in data. Fixed-width fields are skipped by the caller
// seeing neither (profile.proto has none).
func (p *protoBuf) field() (num int, wire int, v uint64, data []byte, err error) {
	key, err := p.varint()
	if err != nil {
		return 0, 0, 0, nil, err
	}
	num, wire = int(key>>3), int(key&7)
	switch wire {
	case 0:
		v, err = p.varint()
	case 2:
		var n uint64
		if n, err = p.varint(); err != nil {
			break
		}
		if n > uint64(len(p.b)) {
			err = errProto
			break
		}
		data, p.b = p.b[:n], p.b[n:]
	case 1:
		if len(p.b) < 8 {
			err = errProto
			break
		}
		p.b = p.b[8:]
	case 5:
		if len(p.b) < 4 {
			err = errProto
			break
		}
		p.b = p.b[4:]
	default:
		err = errProto
	}
	return num, wire, v, data, err
}

// repeated appends a repeated integer field, packed or not.
func repeated(dst []uint64, wire int, v uint64, data []byte) ([]uint64, error) {
	if wire == 0 {
		return append(dst, v), nil
	}
	p := protoBuf{data}
	for len(p.b) > 0 {
		x, err := p.varint()
		if err != nil {
			return nil, err
		}
		dst = append(dst, x)
	}
	return dst, nil
}

// readProfile parses a gzipped pprof profile.
func readProfile(r io.Reader) ([]profSample, error) {
	zr, err := gzip.NewReader(r)
	if err != nil {
		return nil, fmt.Errorf("pprof: %w", err)
	}
	raw, err := io.ReadAll(zr)
	if err != nil {
		return nil, fmt.Errorf("pprof: %w", err)
	}

	type rawSample struct{ locs, vals []uint64 }
	var (
		samples []rawSample
		locs    = map[uint64][]uint64{} // location id -> function ids, innermost inlined frame first
		funcs   = map[uint64]uint64{}   // function id -> name index
		strs    []string
	)
	top := protoBuf{raw}
	for len(top.b) > 0 {
		num, _, _, data, err := top.field()
		if err != nil {
			return nil, err
		}
		msg := protoBuf{data}
		switch num {
		case 2: // Sample
			var s rawSample
			for len(msg.b) > 0 {
				n, wire, v, d, err := msg.field()
				if err != nil {
					return nil, err
				}
				switch n {
				case 1:
					s.locs, err = repeated(s.locs, wire, v, d)
				case 2:
					s.vals, err = repeated(s.vals, wire, v, d)
				}
				if err != nil {
					return nil, err
				}
			}
			samples = append(samples, s)
		case 4: // Location
			var id uint64
			var fns []uint64
			for len(msg.b) > 0 {
				n, _, v, d, err := msg.field()
				if err != nil {
					return nil, err
				}
				switch n {
				case 1:
					id = v
				case 4: // Line
					line := protoBuf{d}
					for len(line.b) > 0 {
						ln, _, lv, _, err := line.field()
						if err != nil {
							return nil, err
						}
						if ln == 1 {
							fns = append(fns, lv)
						}
					}
				}
			}
			locs[id] = fns
		case 5: // Function
			var id, name uint64
			for len(msg.b) > 0 {
				n, _, v, _, err := msg.field()
				if err != nil {
					return nil, err
				}
				switch n {
				case 1:
					id = v
				case 2:
					name = v
				}
			}
			funcs[id] = name
		case 6: // string_table
			strs = append(strs, string(data))
		}
	}

	out := make([]profSample, 0, len(samples))
	for _, s := range samples {
		ps := profSample{Values: make([]int64, len(s.vals))}
		for i, v := range s.vals {
			ps.Values[i] = int64(v)
		}
		for _, l := range s.locs {
			for _, fn := range locs[l] {
				idx := funcs[fn]
				if idx >= uint64(len(strs)) {
					return nil, errProto
				}
				ps.Stack = append(ps.Stack, strs[idx])
			}
		}
		out = append(out, ps)
	}
	return out, nil
}
