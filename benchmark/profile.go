package main

// A reader for the gzip'd profile.proto that runtime/pprof writes, built on
// the standard library alone. It keeps only what attribution needs: sample
// values, each sample's call stack, and function names and files.

import (
	"bytes"
	"compress/gzip"
	"encoding/binary"
	"errors"
	"fmt"
	"io"
)

// frame is one function on a sampled stack.
type frame struct{ fn, file string }

// cpuProfile is a decoded CPU profile: one stack per sample, innermost
// frame first, weighted by CPU nanoseconds.
type cpuProfile struct {
	stacks  [][]frame
	weights []int64
}

// decodeProfile reads a gzip'd or raw profile.proto. The weight of a sample
// is its "cpu" value, or its last value if no sample type is named so.
func decodeProfile(data []byte) (*cpuProfile, error) {
	if len(data) >= 2 && data[0] == 0x1f && data[1] == 0x8b {
		zr, err := gzip.NewReader(bytes.NewReader(data))
		if err != nil {
			return nil, fmt.Errorf("profile: %w", err)
		}
		if data, err = io.ReadAll(zr); err != nil {
			return nil, fmt.Errorf("profile: %w", err)
		}
	}
	type sample struct {
		locs   []uint64
		values []int64
	}
	type function struct{ name, file int64 }
	var (
		sampleTypes []int64 // string index of each value's type
		samples     []sample
		locations   = map[uint64][]uint64{} // location → function ids, innermost first
		functions   = map[uint64]function{}
		strs        []string
	)
	err := walk(data, func(num int, v uint64, b []byte) error {
		switch num {
		case 1: // sample_type
			return walk(b, func(num int, v uint64, _ []byte) error {
				if num == 1 {
					sampleTypes = append(sampleTypes, int64(v))
				}
				return nil
			})
		case 2: // sample
			var s sample
			err := walk(b, func(num int, v uint64, b []byte) error {
				switch num {
				case 1:
					return repeated(v, b, func(x uint64) { s.locs = append(s.locs, x) })
				case 2:
					return repeated(v, b, func(x uint64) { s.values = append(s.values, int64(x)) })
				}
				return nil
			})
			samples = append(samples, s)
			return err
		case 4: // location
			var id uint64
			var fns []uint64
			err := walk(b, func(num int, v uint64, b []byte) error {
				switch num {
				case 1:
					id = v
				case 4: // line
					return walk(b, func(num int, v uint64, _ []byte) error {
						if num == 1 {
							fns = append(fns, v)
						}
						return nil
					})
				}
				return nil
			})
			locations[id] = fns
			return err
		case 5: // function
			var id uint64
			var f function
			err := walk(b, func(num int, v uint64, _ []byte) error {
				switch num {
				case 1:
					id = v
				case 2:
					f.name = int64(v)
				case 4:
					f.file = int64(v)
				}
				return nil
			})
			functions[id] = f
			return err
		case 6: // string_table
			strs = append(strs, string(b))
		}
		return nil
	})
	if err != nil {
		return nil, fmt.Errorf("profile: %w", err)
	}
	str := func(i int64) string {
		if i < 0 || i >= int64(len(strs)) {
			return ""
		}
		return strs[i]
	}
	valueIdx := len(sampleTypes) - 1
	for i, t := range sampleTypes {
		if str(t) == "cpu" {
			valueIdx = i
		}
	}
	p := &cpuProfile{}
	for _, s := range samples {
		if valueIdx < 0 || valueIdx >= len(s.values) {
			return nil, errors.New("profile: sample without the cpu value")
		}
		var stack []frame
		for _, loc := range s.locs {
			for _, fid := range locations[loc] {
				f := functions[fid]
				stack = append(stack, frame{fn: str(f.name), file: str(f.file)})
			}
		}
		p.stacks = append(p.stacks, stack)
		p.weights = append(p.weights, s.values[valueIdx])
	}
	return p, nil
}

// walk calls fn for every field of one protobuf message: v is the value of
// a varint or fixed field, b the bytes of a length-delimited one.
func walk(msg []byte, fn func(num int, v uint64, b []byte) error) error {
	for len(msg) > 0 {
		key, n := binary.Uvarint(msg)
		if n <= 0 {
			return errors.New("bad field key")
		}
		msg = msg[n:]
		num, wire := int(key>>3), key&7
		var v uint64
		var b []byte
		switch wire {
		case 0:
			if v, n = binary.Uvarint(msg); n <= 0 {
				return errors.New("bad varint")
			}
			msg = msg[n:]
		case 1:
			if len(msg) < 8 {
				return errors.New("short fixed64")
			}
			msg = msg[8:]
		case 2:
			l, n := binary.Uvarint(msg)
			if n <= 0 || uint64(len(msg)-n) < l {
				return errors.New("bad length")
			}
			b, msg = msg[n:n+int(l)], msg[n+int(l):]
		case 5:
			if len(msg) < 4 {
				return errors.New("short fixed32")
			}
			msg = msg[4:]
		default:
			return fmt.Errorf("unsupported wire type %d", wire)
		}
		if err := fn(num, v, b); err != nil {
			return err
		}
	}
	return nil
}

// repeated decodes a repeated varint field given either unpacked (one value
// in v, b nil) or packed (all values in b).
func repeated(v uint64, b []byte, add func(uint64)) error {
	if b == nil {
		add(v)
		return nil
	}
	for len(b) > 0 {
		x, n := binary.Uvarint(b)
		if n <= 0 {
			return errors.New("bad packed varint")
		}
		add(x)
		b = b[n:]
	}
	return nil
}
