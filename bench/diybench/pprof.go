package main

import (
	"bytes"
	"compress/gzip"
	"encoding/binary"
	"errors"
	"fmt"
	"io"
)

// A minimal reader for the profile.proto format runtime/pprof writes
// (github.com/google/pprof/proto/profile.proto), keeping only what the
// per-layer ledger needs: sample types, each sample's values, its stack
// as function names, and its string labels.

type profile struct {
	sampleTypes []string // sample type names, e.g. "cpu", "alloc_space"
	samples     []sample
}

type sample struct {
	// stack lists function names innermost first, inlined frames
	// expanded.
	stack  []string
	values []int64
	labels map[string]string
}

// valueIndex returns the position of the named sample type.
func (p *profile) valueIndex(name string) (int, error) {
	for i, t := range p.sampleTypes {
		if t == name {
			return i, nil
		}
	}
	return 0, fmt.Errorf("profile has no %q sample type (has %v)", name, p.sampleTypes)
}

var errTruncated = errors.New("pprof: truncated field")

// Protobuf wire types.
const (
	wireVarint  = 0
	wireFixed64 = 1
	wireBytes   = 2
	wireFixed32 = 5
)

// eachField calls fn for every field of one protobuf message. v holds
// varint and fixed values; b holds length-delimited payloads.
func eachField(buf []byte, fn func(num, wire int, v uint64, b []byte) error) error {
	for len(buf) > 0 {
		key, n := binary.Uvarint(buf)
		if n <= 0 {
			return errTruncated
		}
		buf = buf[n:]
		num, wire := int(key>>3), int(key&7)
		var v uint64
		var b []byte
		switch wire {
		case wireVarint:
			v, n = binary.Uvarint(buf)
			if n <= 0 {
				return errTruncated
			}
			buf = buf[n:]
		case wireFixed64:
			if len(buf) < 8 {
				return errTruncated
			}
			v, buf = binary.LittleEndian.Uint64(buf), buf[8:]
		case wireFixed32:
			if len(buf) < 4 {
				return errTruncated
			}
			v, buf = uint64(binary.LittleEndian.Uint32(buf)), buf[4:]
		case wireBytes:
			l, n := binary.Uvarint(buf)
			if n <= 0 || l > uint64(len(buf)-n) {
				return errTruncated
			}
			b, buf = buf[n:n+int(l)], buf[n+int(l):]
		default:
			return fmt.Errorf("pprof: field %d has unsupported wire type %d", num, wire)
		}
		if err := fn(num, wire, v, b); err != nil {
			return err
		}
	}
	return nil
}

// appendVarints appends one repeated varint field's value, which the
// encoder may write packed (wire type 2) or one value per field.
func appendVarints(dst []uint64, wire int, v uint64, b []byte) ([]uint64, error) {
	if wire == wireVarint {
		return append(dst, v), nil
	}
	if wire != wireBytes {
		return nil, fmt.Errorf("pprof: repeated varint with wire type %d", wire)
	}
	for len(b) > 0 {
		x, n := binary.Uvarint(b)
		if n <= 0 {
			return nil, errTruncated
		}
		dst, b = append(dst, x), b[n:]
	}
	return dst, nil
}

// parseProfile decodes a profile, gzip-compressed or not.
func parseProfile(data []byte) (*profile, error) {
	if len(data) >= 2 && data[0] == 0x1f && data[1] == 0x8b {
		zr, err := gzip.NewReader(bytes.NewReader(data))
		if err != nil {
			return nil, fmt.Errorf("pprof: %w", err)
		}
		if data, err = io.ReadAll(zr); err != nil {
			return nil, fmt.Errorf("pprof: %w", err)
		}
	}

	type rawSample struct {
		locs, values []uint64
		labels       [][2]uint64 // string-table indices of key, value
	}
	var (
		strs    []string
		types   []uint64 // string index of each sample type's name
		raws    []rawSample
		locs    = make(map[uint64][]uint64) // location → function ids, innermost first
		funcs   = make(map[uint64]uint64)   // function → name string index
		p       profile
		scratch []uint64
	)
	err := eachField(data, func(num, wire int, v uint64, b []byte) error {
		switch num {
		case 1: // sample_type
			return eachField(b, func(num, _ int, v uint64, _ []byte) error {
				if num == 1 {
					types = append(types, v)
				}
				return nil
			})
		case 2: // sample
			var s rawSample
			err := eachField(b, func(num, wire int, v uint64, b []byte) error {
				var err error
				switch num {
				case 1:
					s.locs, err = appendVarints(s.locs, wire, v, b)
				case 2:
					s.values, err = appendVarints(s.values, wire, v, b)
				case 3:
					var kv [2]uint64
					err = eachField(b, func(num, _ int, v uint64, _ []byte) error {
						if num == 1 || num == 2 {
							kv[num-1] = v
						}
						return nil
					})
					if kv[1] != 0 { // numeric labels have no string value
						s.labels = append(s.labels, kv)
					}
				}
				return err
			})
			raws = append(raws, s)
			return err
		case 4: // location
			var id uint64
			scratch = scratch[:0]
			err := eachField(b, func(num, _ int, v uint64, b []byte) error {
				switch num {
				case 1:
					id = v
				case 4: // line
					return eachField(b, func(num, _ int, v uint64, _ []byte) error {
						if num == 1 {
							scratch = append(scratch, v)
						}
						return nil
					})
				}
				return nil
			})
			locs[id] = append([]uint64(nil), scratch...)
			return err
		case 5: // function
			var id, name uint64
			err := eachField(b, func(num, _ int, v uint64, _ []byte) error {
				switch num {
				case 1:
					id = v
				case 2:
					name = v
				}
				return nil
			})
			funcs[id] = name
			return err
		case 6: // string_table
			strs = append(strs, string(b))
		}
		return nil
	})
	if err != nil {
		return nil, err
	}

	str := func(i uint64) (string, error) {
		if i >= uint64(len(strs)) {
			return "", fmt.Errorf("pprof: string index %d out of range (%d strings)", i, len(strs))
		}
		return strs[i], nil
	}
	for _, t := range types {
		s, err := str(t)
		if err != nil {
			return nil, err
		}
		p.sampleTypes = append(p.sampleTypes, s)
	}
	for _, r := range raws {
		if len(r.values) != len(p.sampleTypes) {
			return nil, fmt.Errorf("pprof: sample has %d values for %d sample types", len(r.values), len(p.sampleTypes))
		}
		s := sample{values: make([]int64, len(r.values))}
		for i, v := range r.values {
			s.values[i] = int64(v)
		}
		for _, l := range r.locs {
			fids, ok := locs[l]
			if !ok {
				return nil, fmt.Errorf("pprof: sample references unknown location %d", l)
			}
			for _, f := range fids {
				name, ok := funcs[f]
				if !ok {
					return nil, fmt.Errorf("pprof: location %d references unknown function %d", l, f)
				}
				fn, err := str(name)
				if err != nil {
					return nil, err
				}
				s.stack = append(s.stack, fn)
			}
		}
		for _, kv := range r.labels {
			k, err := str(kv[0])
			if err != nil {
				return nil, err
			}
			v, err := str(kv[1])
			if err != nil {
				return nil, err
			}
			if s.labels == nil {
				s.labels = make(map[string]string)
			}
			s.labels[k] = v
		}
		p.samples = append(p.samples, s)
	}
	return &p, nil
}
