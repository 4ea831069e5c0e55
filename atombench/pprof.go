package main

import (
	"bytes"
	"compress/gzip"
	"encoding/binary"
	"errors"
	"fmt"
	"io"
)

// A stack is one sample of a CPU profile: how many times it was seen, and
// the function names of its frames, leaf first, inlined calls expanded.
type stack struct {
	Count  int64
	Frames []string
}

// decodeProfile reads the parts of a gzip-compressed pprof profile that
// attribution needs: samples, locations, functions and the string table
// (profile.proto fields 2, 4, 5 and 6). The standard library writes
// profiles but has no reader, and the module may not import one.
func decodeProfile(data []byte) ([]stack, error) {
	zr, err := gzip.NewReader(bytes.NewReader(data))
	if err != nil {
		return nil, err
	}
	raw, err := io.ReadAll(zr)
	if err != nil {
		return nil, err
	}

	type sample struct {
		locs  []uint64
		count int64
	}
	var (
		samples   []sample
		locations = map[uint64][]uint64{} // location id -> function ids, leaf first
		functions = map[uint64]uint64{}   // function id -> name's string index
		strs      []string
	)
	err = fields(raw, func(num int, v uint64, b []byte) error {
		switch num {
		case 2: // Sample: location_id = 1, value = 2
			var s sample
			first := true
			err := fields(b, func(num int, v uint64, b []byte) error {
				switch num {
				case 1:
					return repeated(v, b, func(id uint64) { s.locs = append(s.locs, id) })
				case 2:
					return repeated(v, b, func(x uint64) {
						// value[0] is the sample count of a CPU profile.
						if first {
							s.count, first = int64(x), false
						}
					})
				}
				return nil
			})
			if err != nil {
				return err
			}
			samples = append(samples, s)
		case 4: // Location: id = 1, line = 4 (Line: function_id = 1)
			var id uint64
			var funcs []uint64
			err := fields(b, func(num int, v uint64, b []byte) error {
				switch num {
				case 1:
					id = v
				case 4:
					return fields(b, func(num int, v uint64, _ []byte) error {
						if num == 1 {
							funcs = append(funcs, v)
						}
						return nil
					})
				}
				return nil
			})
			if err != nil {
				return err
			}
			locations[id] = funcs
		case 5: // Function: id = 1, name = 2
			var id, name uint64
			err := fields(b, func(num int, v uint64, _ []byte) error {
				switch num {
				case 1:
					id = v
				case 2:
					name = v
				}
				return nil
			})
			if err != nil {
				return err
			}
			functions[id] = name
		case 6:
			strs = append(strs, string(b))
		}
		return nil
	})
	if err != nil {
		return nil, err
	}

	stacks := make([]stack, 0, len(samples))
	for _, s := range samples {
		st := stack{Count: s.count}
		for _, loc := range s.locs {
			for _, fn := range locations[loc] {
				idx := functions[fn]
				if idx >= uint64(len(strs)) {
					return nil, fmt.Errorf("pprof: function %d names string %d of %d", fn, idx, len(strs))
				}
				st.Frames = append(st.Frames, strs[idx])
			}
		}
		stacks = append(stacks, st)
	}
	return stacks, nil
}

var errTruncated = errors.New("pprof: truncated message")

// fields walks the fields of one protobuf message. A varint field arrives
// in v, a length-delimited one in b; fixed-width fields are skipped.
func fields(msg []byte, visit func(num int, v uint64, b []byte) error) error {
	for len(msg) > 0 {
		key, n := binary.Uvarint(msg)
		if n <= 0 {
			return errTruncated
		}
		msg = msg[n:]
		num, wire := int(key>>3), key&7
		switch wire {
		case 0:
			v, n := binary.Uvarint(msg)
			if n <= 0 {
				return errTruncated
			}
			msg = msg[n:]
			if err := visit(num, v, nil); err != nil {
				return err
			}
		case 1, 5:
			width := 8
			if wire == 5 {
				width = 4
			}
			if len(msg) < width {
				return errTruncated
			}
			msg = msg[width:]
		case 2:
			l, n := binary.Uvarint(msg)
			if n <= 0 || uint64(len(msg)-n) < l {
				return errTruncated
			}
			if err := visit(num, 0, msg[n:n+int(l)]); err != nil {
				return err
			}
			msg = msg[n+int(l):]
		default:
			return fmt.Errorf("pprof: unsupported wire type %d", wire)
		}
	}
	return nil
}

// repeated delivers a repeated varint field, packed (b) or not (v).
func repeated(v uint64, b []byte, each func(uint64)) error {
	if b == nil {
		each(v)
		return nil
	}
	for len(b) > 0 {
		x, n := binary.Uvarint(b)
		if n <= 0 {
			return errTruncated
		}
		each(x)
		b = b[n:]
	}
	return nil
}
