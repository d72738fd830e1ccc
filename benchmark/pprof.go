package main

import (
	"bytes"
	"compress/gzip"
	"errors"
	"fmt"
	"io"
	"strings"
)

// profile is the part of a pprof profile the layer fold needs: the sample
// types and, per sample, its call stack as function names (innermost first,
// inlined frames expanded) with one value per sample type.
type profile struct {
	types   []string
	samples []sample
}

type sample struct {
	stack  []string
	values []int64
}

// valueIndex returns the index of the named sample type ("cpu",
// "alloc_space", ...).
func (p *profile) valueIndex(typ string) (int, error) {
	for i, t := range p.types {
		if t == typ {
			return i, nil
		}
	}
	return 0, fmt.Errorf("profile has no %q sample type (have %v)", typ, p.types)
}

// parseProfile decodes a gzipped pprof protobuf as runtime/pprof writes it.
// Only the fields listed in profile are read; everything else is skipped.
func parseProfile(gz []byte) (*profile, error) {
	zr, err := gzip.NewReader(bytes.NewReader(gz))
	if err != nil {
		return nil, fmt.Errorf("pprof: %w", err)
	}
	raw, err := io.ReadAll(zr)
	if err != nil {
		return nil, fmt.Errorf("pprof: %w", err)
	}

	type rawSample struct {
		locs   []uint64
		values []int64
	}
	var (
		strs     []string
		typeIdx  []int64
		samples  []rawSample
		locLines = map[uint64][]uint64{} // location id -> function ids, innermost first
		funcName = map[uint64]int64{}    // function id -> string index
	)
	err = walk(raw, func(field int, v uint64, msg []byte) error {
		switch field {
		case 1: // sample_type
			return walk(msg, func(f int, v uint64, _ []byte) error {
				if f == 1 {
					typeIdx = append(typeIdx, int64(v))
				}
				return nil
			})
		case 2: // sample
			var s rawSample
			err := walk(msg, func(f int, v uint64, packed []byte) error {
				switch f {
				case 1:
					return appendVarints(&s.locs, v, packed)
				case 2:
					var vs []uint64
					if err := appendVarints(&vs, v, packed); err != nil {
						return err
					}
					for _, x := range vs {
						s.values = append(s.values, int64(x))
					}
				}
				return nil
			})
			samples = append(samples, s)
			return err
		case 4: // location
			var id uint64
			var fns []uint64
			err := walk(msg, func(f int, v uint64, line []byte) error {
				switch f {
				case 1:
					id = v
				case 4:
					return walk(line, func(f int, v uint64, _ []byte) error {
						if f == 1 {
							fns = append(fns, v)
						}
						return nil
					})
				}
				return nil
			})
			locLines[id] = fns
			return err
		case 5: // function
			var id uint64
			var name int64
			err := walk(msg, func(f int, v uint64, _ []byte) error {
				switch f {
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
			strs = append(strs, string(msg))
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
	p := &profile{}
	for _, i := range typeIdx {
		p.types = append(p.types, str(i))
	}
	for _, rs := range samples {
		s := sample{values: rs.values}
		for _, loc := range rs.locs {
			for _, fn := range locLines[loc] {
				s.stack = append(s.stack, str(funcName[fn]))
			}
		}
		p.samples = append(p.samples, s)
	}
	return p, nil
}

var errTruncated = errors.New("pprof: truncated protobuf")

// walk calls fn for every field of one protobuf message: v carries varint
// (and fixed-width) values, msg the payload of length-delimited fields.
func walk(b []byte, fn func(field int, v uint64, msg []byte) error) error {
	for len(b) > 0 {
		key, n := varint(b)
		if n == 0 {
			return errTruncated
		}
		b = b[n:]
		field, wire := int(key>>3), key&7
		var v uint64
		var msg []byte
		switch wire {
		case 0:
			v, n = varint(b)
			if n == 0 {
				return errTruncated
			}
			b = b[n:]
		case 1:
			if len(b) < 8 {
				return errTruncated
			}
			b = b[8:]
			continue
		case 2:
			l, n := varint(b)
			if n == 0 || uint64(len(b)-n) < l {
				return errTruncated
			}
			msg, b = b[n:n+int(l)], b[n+int(l):]
		case 5:
			if len(b) < 4 {
				return errTruncated
			}
			b = b[4:]
			continue
		default:
			return fmt.Errorf("pprof: unsupported wire type %d", wire)
		}
		if err := fn(field, v, msg); err != nil {
			return err
		}
	}
	return nil
}

// appendVarints appends a repeated varint field given either unpacked
// (one value v) or packed (a run of varints in packed) encoding; the pprof
// writer uses both.
func appendVarints(dst *[]uint64, v uint64, packed []byte) error {
	if packed == nil {
		*dst = append(*dst, v)
		return nil
	}
	for len(packed) > 0 {
		x, n := varint(packed)
		if n == 0 {
			return errTruncated
		}
		*dst = append(*dst, x)
		packed = packed[n:]
	}
	return nil
}

// varint decodes one base-128 varint; n == 0 means malformed input.
func varint(b []byte) (v uint64, n int) {
	for shift := uint(0); shift < 64 && n < len(b); shift += 7 {
		c := b[n]
		n++
		v |= uint64(c&0x7f) << shift
		if c < 0x80 {
			return v, n
		}
	}
	return 0, 0
}

// modulePrefix marks the repository's own frames in symbolized stacks.
const modulePrefix = "github.com/firestarter-go/firestarter/"

// Layers the fold reports. Every repository package maps to one of them or
// to layerOther; samples with no repository frame at all (GC workers, the
// scheduler) go to layerRuntime.
const (
	layerRuntime = "go-runtime"
	layerOther   = "other"
)

var layerOfPackage = map[string]string{
	"interp":     "interp",
	"bytecode":   "bytecode",
	"mem":        "mem",
	"htm":        "htm",
	"stm":        "stm",
	"core":       "core",
	"libsim":     "libsim",
	"workload":   "workload",
	"fleet":      "fleet",
	"supervisor": "supervisor",
	"obsv":       "obsv",
	"faultinj":   "faultinj",
	"bench":      "bench",
	// The compile pipeline: front end, IR, hardening passes and the
	// library model they consult. apps only wraps minic.Compile.
	"minic":     "compile",
	"ir":        "compile",
	"transform": "compile",
	"analysis":  "compile",
	"libmodel":  "compile",
	"apps":      "compile",
}

// layerOf maps a symbolized function name to its layer; ok is false for
// frames outside the repository (runtime, fmt, sort, ...).
func layerOf(fn string) (layer string, ok bool) {
	rest, found := strings.CutPrefix(fn, modulePrefix)
	if !found {
		return "", false
	}
	// The bytecode engine is a backend type inside package interp.
	if strings.HasPrefix(rest, "internal/interp.(*bytecodeBackend)") {
		return "bytecode", true
	}
	path := rest
	if i := strings.IndexAny(path, "(["); i >= 0 {
		path = path[:i]
	}
	pkg := path[strings.LastIndex(path, "/")+1:]
	if i := strings.IndexByte(pkg, '.'); i >= 0 {
		pkg = pkg[:i]
	}
	if l, known := layerOfPackage[pkg]; known {
		return l, true
	}
	return layerOther, true
}

// fold sums sample value vi per layer. Each sample goes to its innermost
// repository frame, so runtime work (mallocgc, memmove, fmt) called from a
// layer counts to that layer.
func fold(p *profile, vi int) map[string]int64 {
	out := map[string]int64{}
	for _, s := range p.samples {
		if vi >= len(s.values) {
			continue
		}
		layer := layerRuntime
		for _, fn := range s.stack {
			if l, ok := layerOf(fn); ok {
				layer = l
				break
			}
		}
		out[layer] += s.values[vi]
	}
	return out
}
