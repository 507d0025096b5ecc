package main

import (
	"bytes"
	"compress/gzip"
	"encoding/binary"
	"errors"
	"io"
	"strings"
)

// profiledPackages are the cycle-loop components whose self-time share of
// a CPU profile the traced run reports; everything else lands in "other".
var profiledPackages = []string{"machine", "persistpath", "wpq", "noc", "mem", "probe", "metrics", "runtime", "other"}

// cpuShares reads a runtime/pprof CPU profile (gzipped profile.proto) and
// returns each profiled package's share of the sampled CPU time, charged
// to the innermost function of every sample (self time).
func cpuShares(gz []byte) (map[string]float64, error) {
	zr, err := gzip.NewReader(bytes.NewReader(gz))
	if err != nil {
		return nil, err
	}
	raw, err := io.ReadAll(zr)
	if err != nil {
		return nil, err
	}
	type sample struct {
		loc   uint64
		value int64
	}
	var (
		samples  []sample
		locFn    = map[uint64]uint64{} // location id → innermost function id
		fnName   = map[uint64]int64{}  // function id → string-table index
		strtab   []string
		parseErr error
	)
	err = eachField(raw, func(num int, _ uint64, b []byte) {
		switch num {
		case 2: // Sample
			var locs []uint64
			var vals []int64
			parseErr = errors.Join(parseErr, eachField(b, func(num int, v uint64, b []byte) {
				switch num {
				case 1:
					locs = appendVarints(locs, v, b)
				case 2:
					for _, u := range appendVarints(nil, v, b) {
						vals = append(vals, int64(u))
					}
				}
			}))
			if len(locs) > 0 && len(vals) > 0 {
				samples = append(samples, sample{loc: locs[0], value: vals[len(vals)-1]})
			}
		case 4: // Location
			var id, fn uint64
			first := true
			parseErr = errors.Join(parseErr, eachField(b, func(num int, v uint64, b []byte) {
				switch num {
				case 1:
					id = v
				case 4: // Line: the first is the innermost inlined function
					if first {
						first = false
						parseErr = errors.Join(parseErr, eachField(b, func(num int, v uint64, _ []byte) {
							if num == 1 {
								fn = v
							}
						}))
					}
				}
			}))
			locFn[id] = fn
		case 5: // Function
			var id uint64
			var name int64
			parseErr = errors.Join(parseErr, eachField(b, func(num int, v uint64, _ []byte) {
				switch num {
				case 1:
					id = v
				case 2:
					name = int64(v)
				}
			}))
			fnName[id] = name
		case 6:
			strtab = append(strtab, string(b))
		}
	})
	if err = errors.Join(err, parseErr); err != nil {
		return nil, err
	}
	out := map[string]float64{}
	var total float64
	for _, s := range samples {
		name := ""
		if i := fnName[locFn[s.loc]]; i >= 0 && int(i) < len(strtab) {
			name = strtab[i]
		}
		out[packageOf(name)] += float64(s.value)
		total += float64(s.value)
	}
	if total == 0 {
		return nil, errors.New("profile holds no samples")
	}
	for k := range out {
		out[k] /= total
	}
	return out, nil
}

// packageOf maps a symbol to the profiled package it belongs to.
func packageOf(sym string) string {
	if strings.HasPrefix(sym, "runtime.") || strings.HasPrefix(sym, "runtime/") ||
		strings.HasPrefix(sym, "internal/runtime/") {
		return "runtime"
	}
	if rest, ok := strings.CutPrefix(sym, "lightwsp/internal/"); ok {
		pkg, _, _ := strings.Cut(rest, ".")
		for _, p := range profiledPackages {
			if p == pkg {
				return p
			}
		}
	}
	return "other"
}

// eachField walks one protobuf message, calling fn with each field's
// number and either its varint value or its length-delimited bytes.
func eachField(b []byte, fn func(num int, v uint64, data []byte)) error {
	for len(b) > 0 {
		key, n := binary.Uvarint(b)
		if n <= 0 {
			return errors.New("bad field key")
		}
		b = b[n:]
		num, wire := int(key>>3), key&7
		switch wire {
		case 0:
			v, n := binary.Uvarint(b)
			if n <= 0 {
				return errors.New("bad varint")
			}
			b = b[n:]
			fn(num, v, nil)
		case 1:
			if len(b) < 8 {
				return errors.New("short fixed64")
			}
			b = b[8:]
		case 2:
			l, n := binary.Uvarint(b)
			if n <= 0 || uint64(len(b)-n) < l {
				return errors.New("bad length")
			}
			fn(num, 0, b[n:n+int(l)])
			b = b[n+int(l):]
		case 5:
			if len(b) < 4 {
				return errors.New("short fixed32")
			}
			b = b[4:]
		default:
			return errors.New("unsupported wire type")
		}
	}
	return nil
}

// appendVarints appends a repeated varint field's values: either the one
// unpacked value v, or every value in the packed data.
func appendVarints(dst []uint64, v uint64, data []byte) []uint64 {
	if data == nil {
		return append(dst, v)
	}
	for len(data) > 0 {
		u, n := binary.Uvarint(data)
		if n <= 0 {
			return dst
		}
		dst = append(dst, u)
		data = data[n:]
	}
	return dst
}
