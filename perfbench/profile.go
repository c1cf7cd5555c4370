package main

import (
	"bytes"
	"compress/gzip"
	"encoding/binary"
	"errors"
	"fmt"
	"io"
	"strings"
)

// Host-time share per module comes from a CPU profile of the traced
// batches: each sample is attributed to its innermost durassd/internal/<pkg>
// frame and named after the package's last path element (dbsim/buffer →
// buffer). Samples with no such frame (the collector's background
// workers, the benchmark itself) count as "other". The decoder below
// reads just the fields of the pprof protobuf that this needs, with the
// standard library only.

const modulePrefix = "durassd/internal/"

// moduleOf returns the module of a function name, or "" when the function
// is outside durassd/internal.
func moduleOf(fn string) string {
	rest, ok := strings.CutPrefix(fn, modulePrefix)
	if !ok {
		return ""
	}
	pkg, _, _ := strings.Cut(rest, ".")
	return pkg[strings.LastIndex(pkg, "/")+1:]
}

// cpuByModule decodes a gzipped pprof CPU profile and returns the CPU
// nanoseconds attributed to each module, plus "other".
func cpuByModule(gz []byte) (map[string]int64, error) {
	zr, err := gzip.NewReader(bytes.NewReader(gz))
	if err != nil {
		return nil, fmt.Errorf("profile: %w", err)
	}
	raw, err := io.ReadAll(zr)
	if err != nil {
		return nil, fmt.Errorf("profile: %w", err)
	}

	type sample struct {
		locs  []uint64
		value int64
	}
	var (
		samples   []sample
		locFuncs  = map[uint64][]uint64{} // location id → function ids, innermost first
		funcNames = map[uint64]int64{}    // function id → string table index
		strs      []string
	)
	err = walk(raw, func(num int, v uint64, b []byte) error {
		switch num {
		case 2: // Profile.sample
			var s sample
			var vals []int64
			err := walk(b, func(num int, v uint64, b []byte) error {
				switch num {
				case 1:
					s.locs = appendPacked(s.locs, v, b)
				case 2:
					for _, x := range appendPacked(nil, v, b) {
						vals = append(vals, int64(x))
					}
				}
				return nil
			})
			if err != nil {
				return err
			}
			if len(vals) > 0 {
				s.value = vals[len(vals)-1] // cpu nanoseconds
			}
			samples = append(samples, s)
		case 4: // Profile.location
			var id uint64
			var fns []uint64
			err := walk(b, func(num int, v uint64, b []byte) error {
				switch num {
				case 1:
					id = v
				case 4: // Location.line
					return walk(b, func(num int, v uint64, _ []byte) error {
						if num == 1 {
							fns = append(fns, v)
						}
						return nil
					})
				}
				return nil
			})
			if err != nil {
				return err
			}
			locFuncs[id] = fns
		case 5: // Profile.function
			var id uint64
			var name int64
			err := walk(b, func(num int, v uint64, _ []byte) error {
				switch num {
				case 1:
					id = v
				case 2:
					name = int64(v)
				}
				return nil
			})
			if err != nil {
				return err
			}
			funcNames[id] = name
		case 6: // Profile.string_table
			strs = append(strs, string(b))
		}
		return nil
	})
	if err != nil {
		return nil, err
	}

	out := map[string]int64{}
	for _, s := range samples {
		mod := "other"
	frames:
		for _, loc := range s.locs {
			for _, fid := range locFuncs[loc] {
				idx := funcNames[fid]
				if idx < 0 || idx >= int64(len(strs)) {
					continue
				}
				if m := moduleOf(strs[idx]); m != "" {
					mod = m
					break frames
				}
			}
		}
		out[mod] += s.value
	}
	return out, nil
}

// walk calls fn for every field of one protobuf message: v holds varint
// and fixed-width values, b the payload of length-delimited fields.
func walk(msg []byte, fn func(num int, v uint64, b []byte) error) error {
	for len(msg) > 0 {
		key, n := binary.Uvarint(msg)
		if n <= 0 {
			return errBadProto
		}
		msg = msg[n:]
		num, wire := int(key>>3), key&7
		var v uint64
		var b []byte
		switch wire {
		case 0:
			v, n = binary.Uvarint(msg)
			if n <= 0 {
				return errBadProto
			}
			msg = msg[n:]
		case 1:
			if len(msg) < 8 {
				return errBadProto
			}
			msg = msg[8:]
		case 2:
			l, n := binary.Uvarint(msg)
			if n <= 0 || uint64(len(msg)-n) < l {
				return errBadProto
			}
			b = msg[n : n+int(l)]
			msg = msg[n+int(l):]
		case 5:
			if len(msg) < 4 {
				return errBadProto
			}
			msg = msg[4:]
		default:
			return errBadProto
		}
		if err := fn(num, v, b); err != nil {
			return err
		}
	}
	return nil
}

var errBadProto = errors.New("profile: malformed protobuf")

// appendPacked appends one repeated varint field, packed (b) or not (v).
func appendPacked(dst []uint64, v uint64, b []byte) []uint64 {
	if b == nil {
		return append(dst, v)
	}
	for len(b) > 0 {
		x, n := binary.Uvarint(b)
		if n <= 0 {
			return dst
		}
		dst = append(dst, x)
		b = b[n:]
	}
	return dst
}
