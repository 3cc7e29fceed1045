// Package fold attributes CPU-profile samples to the layers of hipcloud.
//
// It reads the gzipped profile.proto that runtime/pprof writes with a
// minimal protobuf decoder (standard library only), turns every sample
// into its stack of function names, innermost first, and folds each
// stack onto one module: the innermost hipcloud/internal/<module> frame,
// the harness, runtime.gc, runtime.sched or other. LayerShares groups
// the modules into the stack's layers.
package fold

import (
	"bytes"
	"compress/gzip"
	"encoding/binary"
	"errors"
	"fmt"
	"io"
)

// Sample is one profile sample: its frames, innermost first, and its
// weight (CPU nanoseconds for a CPU profile).
type Sample struct {
	Frames []string
	Weight int64
}

var errTruncated = errors.New("fold: truncated profile")

// Parse decodes a runtime/pprof profile (gzipped or raw profile.proto)
// into samples. Inlined calls expand into one frame each, so an inlined
// callee still counts toward its own package.
func Parse(data []byte) ([]Sample, error) {
	if len(data) >= 2 && data[0] == 0x1f && data[1] == 0x8b {
		zr, err := gzip.NewReader(bytes.NewReader(data))
		if err != nil {
			return nil, fmt.Errorf("fold: gunzip profile: %w", err)
		}
		raw, err := io.ReadAll(zr)
		if err != nil {
			return nil, fmt.Errorf("fold: gunzip profile: %w", err)
		}
		data = raw
	}

	type rawSample struct {
		locs   []uint64
		values []int64
	}
	var (
		strs       []string
		samples    []rawSample
		valueTypes []int64 // string index of each sample type's name
		locLines   = map[uint64][]uint64{}
		funcName   = map[uint64]int64{}
	)
	err := fields(data, func(num int, wire int, v uint64, b []byte) error {
		switch num {
		case 1: // sample_type
			var typ int64
			err := fields(b, func(n, _ int, v uint64, _ []byte) error {
				if n == 1 {
					typ = int64(v)
				}
				return nil
			})
			valueTypes = append(valueTypes, typ)
			return err
		case 2: // sample
			var s rawSample
			err := fields(b, func(n, w int, v uint64, b []byte) error {
				switch n {
				case 1:
					return varints(w, v, b, func(x uint64) { s.locs = append(s.locs, x) })
				case 2:
					return varints(w, v, b, func(x uint64) { s.values = append(s.values, int64(x)) })
				}
				return nil
			})
			samples = append(samples, s)
			return err
		case 4: // location
			var id uint64
			var lines []uint64
			err := fields(b, func(n, _ int, v uint64, b []byte) error {
				switch n {
				case 1:
					id = v
				case 4: // line
					return fields(b, func(n, _ int, v uint64, _ []byte) error {
						if n == 1 {
							lines = append(lines, v)
						}
						return nil
					})
				}
				return nil
			})
			locLines[id] = lines
			return err
		case 5: // function
			var id uint64
			var name int64
			err := fields(b, func(n, _ int, v uint64, _ []byte) error {
				switch n {
				case 1:
					id = v
				case 2:
					name = int64(v)
				}
				return nil
			})
			funcName[id] = name
			return err
		case 6: // string_table
			strs = append(strs, string(b))
		}
		return nil
	})
	if err != nil {
		return nil, err
	}

	str := func(i int64) string {
		if i < 0 || i >= int64(len(strs)) {
			return ""
		}
		return strs[i]
	}
	// A CPU profile carries [samples/count, cpu/nanoseconds]; weigh by
	// the cpu value when present, else by the last value.
	wi := len(valueTypes) - 1
	for i, t := range valueTypes {
		if str(t) == "cpu" {
			wi = i
		}
	}
	out := make([]Sample, 0, len(samples))
	for _, rs := range samples {
		var s Sample
		if wi >= 0 && wi < len(rs.values) {
			s.Weight = rs.values[wi]
		}
		for _, loc := range rs.locs {
			// A location's lines list inlined callees first and the
			// function they were inlined into last.
			for _, fid := range locLines[loc] {
				s.Frames = append(s.Frames, str(funcName[fid]))
			}
		}
		out = append(out, s)
	}
	return out, nil
}

// fields walks one protobuf message, calling fn with each field's number,
// wire type, and its varint value or length-delimited bytes.
func fields(b []byte, fn func(num, wire int, v uint64, b []byte) error) error {
	for len(b) > 0 {
		key, n := binary.Uvarint(b)
		if n <= 0 {
			return errTruncated
		}
		b = b[n:]
		num, wire := int(key>>3), int(key&7)
		var v uint64
		var body []byte
		switch wire {
		case 0:
			v, n = binary.Uvarint(b)
			if n <= 0 {
				return errTruncated
			}
			b = b[n:]
		case 1:
			if len(b) < 8 {
				return errTruncated
			}
			v, b = binary.LittleEndian.Uint64(b), b[8:]
		case 2:
			l, n := binary.Uvarint(b)
			if n <= 0 || uint64(len(b)-n) < l {
				return errTruncated
			}
			body, b = b[n:n+int(l)], b[n+int(l):]
		case 5:
			if len(b) < 4 {
				return errTruncated
			}
			v, b = uint64(binary.LittleEndian.Uint32(b)), b[4:]
		default:
			return fmt.Errorf("fold: unsupported wire type %d", wire)
		}
		if err := fn(num, wire, v, body); err != nil {
			return err
		}
	}
	return nil
}

// varints handles a repeated varint field in either encoding: one value
// per field (wire type 0) or packed into one length-delimited field.
func varints(wire int, v uint64, b []byte, add func(uint64)) error {
	if wire == 0 {
		add(v)
		return nil
	}
	for len(b) > 0 {
		x, n := binary.Uvarint(b)
		if n <= 0 {
			return errTruncated
		}
		add(x)
		b = b[n:]
	}
	return nil
}
