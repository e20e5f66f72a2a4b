package main

import (
	"bytes"
	"compress/gzip"
	"encoding/binary"
	"errors"
	"io"
	"strings"
)

// profileModules reads a gzipped pprof CPU profile and charges each
// sample to the innermost netseer/internal/<module> frame of its stack
// ("collector/wal" for nested packages). Samples with no such frame go to
// "bench" when a frame is the benchmark's own, else to "runtime" when a
// frame is the Go runtime's, else to "other".
// It returns sample counts and CPU nanoseconds per module.
func profileModules(gz []byte) (samples map[string]int64, cpuNs map[string]int64, err error) {
	zr, err := gzip.NewReader(bytes.NewReader(gz))
	if err != nil {
		return nil, nil, err
	}
	raw, err := io.ReadAll(zr)
	if err != nil {
		return nil, nil, err
	}
	p, err := parseProfile(raw)
	if err != nil {
		return nil, nil, err
	}
	samples, cpuNs = map[string]int64{}, map[string]int64{}
	for _, s := range p.samples {
		mod, bench, rt := "", false, false
	stack:
		for _, loc := range s.locs {
			for _, fn := range p.locFuncs[loc] {
				name := p.strings[p.funcName[fn]]
				if m, ok := strings.CutPrefix(name, "netseer/internal/"); ok {
					if i := strings.Index(m, "."); i >= 0 {
						m = m[:i]
					}
					mod = m
					break stack
				}
				bench = bench || strings.HasPrefix(name, "main.")
				rt = rt || strings.HasPrefix(name, "runtime.")
			}
		}
		switch {
		case mod != "":
		case bench:
			mod = "bench"
		case rt:
			mod = "runtime"
		default:
			mod = "other"
		}
		samples[mod] += s.count
		cpuNs[mod] += s.nanos
	}
	return samples, cpuNs, nil
}

type profSample struct {
	locs         []uint64
	count, nanos int64
}

type profile struct {
	samples  []profSample
	locFuncs map[uint64][]uint64 // innermost inlined function first
	funcName map[uint64]int64
	strings  []string
}

// parseProfile decodes the fields of profile.proto that attribution
// needs: samples (location IDs, values), locations' lines and functions'
// names, and the string table.
func parseProfile(b []byte) (*profile, error) {
	p := &profile{locFuncs: map[uint64][]uint64{}, funcName: map[uint64]int64{}}
	err := eachField(b, func(field int, wire int, v uint64, data []byte) error {
		switch field {
		case 2: // Sample
			var s profSample
			var vals []int64
			err := eachField(data, func(f, w int, v uint64, d []byte) error {
				switch f {
				case 1:
					s.locs = appendPacked(s.locs, w, v, d)
				case 2:
					for _, x := range appendPacked(nil, w, v, d) {
						vals = append(vals, int64(x))
					}
				}
				return nil
			})
			if err != nil {
				return err
			}
			if len(vals) >= 2 {
				s.count, s.nanos = vals[0], vals[1]
			}
			p.samples = append(p.samples, s)
		case 4: // Location
			var id uint64
			var fns []uint64
			err := eachField(data, func(f, w int, v uint64, d []byte) error {
				switch f {
				case 1:
					id = v
				case 4: // Line
					return eachField(d, func(lf, lw int, lv uint64, _ []byte) error {
						if lf == 1 {
							fns = append(fns, lv)
						}
						return nil
					})
				}
				return nil
			})
			if err != nil {
				return err
			}
			p.locFuncs[id] = fns
		case 5: // Function
			var id uint64
			var name int64
			err := eachField(data, func(f, w int, v uint64, _ []byte) error {
				switch f {
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
			p.funcName[id] = name
		case 6: // string_table
			p.strings = append(p.strings, string(data))
		}
		return nil
	})
	if err != nil {
		return nil, err
	}
	for _, n := range p.funcName {
		if n < 0 || n >= int64(len(p.strings)) {
			return nil, errors.New("profile: function name outside string table")
		}
	}
	return p, nil
}

// appendPacked appends a repeated varint field's values, whether encoded
// one per field or packed.
func appendPacked(out []uint64, wire int, v uint64, data []byte) []uint64 {
	if wire == 0 {
		return append(out, v)
	}
	for len(data) > 0 {
		x, n := binary.Uvarint(data)
		if n <= 0 {
			break
		}
		out = append(out, x)
		data = data[n:]
	}
	return out
}

// eachField walks one protobuf message, calling fn with each field's
// number, wire type, varint value (wire type 0) or bytes (wire type 2).
func eachField(b []byte, fn func(field, wire int, v uint64, data []byte) error) error {
	for len(b) > 0 {
		key, n := binary.Uvarint(b)
		if n <= 0 {
			return errors.New("profile: bad field key")
		}
		b = b[n:]
		field, wire := int(key>>3), int(key&7)
		var v uint64
		var data []byte
		switch wire {
		case 0:
			v, n = binary.Uvarint(b)
			if n <= 0 {
				return errors.New("profile: bad varint")
			}
			b = b[n:]
		case 1:
			if len(b) < 8 {
				return errors.New("profile: truncated fixed64")
			}
			b = b[8:]
		case 2:
			l, n := binary.Uvarint(b)
			if n <= 0 || uint64(len(b)-n) < l {
				return errors.New("profile: truncated bytes field")
			}
			data = b[n : n+int(l)]
			b = b[n+int(l):]
		case 5:
			if len(b) < 4 {
				return errors.New("profile: truncated fixed32")
			}
			b = b[4:]
		default:
			return errors.New("profile: unsupported wire type")
		}
		if err := fn(field, wire, v, data); err != nil {
			return err
		}
	}
	return nil
}
