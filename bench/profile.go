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

// This file decodes the CPU profiles runtime/pprof writes (a gzipped
// protobuf, see github.com/google/pprof/proto/profile.proto) with the
// standard library alone, and splits their CPU time by simulator layer.

// layers are the buckets of the per-layer split, in report order: every
// adhocsim/internal package that does per-replication work, then gc
// (background mark workers), bench (this harness's own digesting and
// gating) and other (runtime scheduling and anything else).
var layers = []string{
	"sim", "medium", "phy", "mac", "frame", "network", "transport", "app",
	"routing", "faults", "node", "scenario", "runner", "obs",
	"gc", "bench", "other",
}

const internalPrefix = "adhocsim/internal/"

// stackSample is one profile sample: its call stack as function names,
// innermost (leaf) first with inlined frames expanded, and the CPU time
// it stands for.
type stackSample struct {
	funcs []string
	cpuNs int64
}

// layerOf attributes one stack to a layer. Background GC work belongs to
// gc whoever allocated the garbage. Otherwise the innermost frame of a
// layer package wins, so standard-library and runtime work (maps,
// allocation, assists) counts toward the layer that called it, and an
// internal package outside the list (stats, trace) toward its caller.
// Stacks with no layer frame are the harness's own when a main-package
// frame is on them, and other when not.
func layerOf(funcs []string) string {
	for _, f := range funcs {
		if f == "runtime.gcBgMarkWorker" {
			return "gc"
		}
	}
	for _, f := range funcs {
		if l := internalPackage(f); l != "" && isLayer(l) {
			return l
		}
	}
	for _, f := range funcs {
		if strings.HasPrefix(f, "main.") {
			return "bench"
		}
	}
	return "other"
}

// internalPackage returns the package of an adhocsim/internal function
// symbol ("mac" for "adhocsim/internal/mac.(*MAC).tx"), or "".
func internalPackage(fn string) string {
	rest, ok := strings.CutPrefix(fn, internalPrefix)
	if !ok {
		return ""
	}
	if i := strings.IndexAny(rest, "./"); i >= 0 {
		rest = rest[:i]
	}
	return rest
}

func isLayer(name string) bool {
	for _, l := range layers {
		if l == name {
			return true
		}
	}
	return false
}

// layerSplit sums the samples' CPU time per layer; every layer in layers
// has an entry, so the shares always sum to one.
func layerSplit(samples []stackSample) (ns map[string]int64, total int64) {
	ns = make(map[string]int64, len(layers))
	for _, l := range layers {
		ns[l] = 0
	}
	for _, s := range samples {
		ns[layerOf(s.funcs)] += s.cpuNs
		total += s.cpuNs
	}
	return ns, total
}

// parseProfile decodes a CPU profile, gzipped or not, into its samples.
// The sample value used is the "cpu" one (nanoseconds); a profile with a
// single value type uses that one.
func parseProfile(data []byte) ([]stackSample, error) {
	if len(data) >= 2 && data[0] == 0x1f && data[1] == 0x8b {
		zr, err := gzip.NewReader(bytes.NewReader(data))
		if err != nil {
			return nil, fmt.Errorf("profile: %w", err)
		}
		if data, err = io.ReadAll(zr); err != nil {
			return nil, fmt.Errorf("profile: %w", err)
		}
	}
	type rawSample struct{ locs, values []uint64 }
	var (
		samples   []rawSample
		types     []uint64 // sample_type string index of each value
		locFuncs  = map[uint64][]uint64{}
		funcNames = map[uint64]uint64{}
		strs      []string
	)
	err := walkMessage(data, func(field int, wire int, v uint64, b []byte) error {
		switch {
		case field == 1 && wire == 2: // sample_type
			var typ uint64
			err := walkMessage(b, func(f, w int, v uint64, _ []byte) error {
				if f == 1 && w == 0 {
					typ = v
				}
				return nil
			})
			types = append(types, typ)
			return err
		case field == 2 && wire == 2: // sample
			var s rawSample
			err := walkMessage(b, func(f, w int, v uint64, b []byte) error {
				switch f {
				case 1:
					return appendRepeated(&s.locs, w, v, b)
				case 2:
					return appendRepeated(&s.values, w, v, b)
				}
				return nil
			})
			samples = append(samples, s)
			return err
		case field == 4 && wire == 2: // location
			var id uint64
			var funcs []uint64
			err := walkMessage(b, func(f, w int, v uint64, b []byte) error {
				switch {
				case f == 1 && w == 0:
					id = v
				case f == 4 && w == 2: // line, innermost inlined frame first
					return walkMessage(b, func(f, w int, v uint64, _ []byte) error {
						if f == 1 && w == 0 {
							funcs = append(funcs, v)
						}
						return nil
					})
				}
				return nil
			})
			locFuncs[id] = funcs
			return err
		case field == 5 && wire == 2: // function
			var id, name uint64
			err := walkMessage(b, func(f, w int, v uint64, _ []byte) error {
				switch {
				case f == 1 && w == 0:
					id = v
				case f == 2 && w == 0:
					name = v
				}
				return nil
			})
			funcNames[id] = name
			return err
		case field == 6 && wire == 2: // string_table
			strs = append(strs, string(b))
		}
		return nil
	})
	if err != nil {
		return nil, fmt.Errorf("profile: %w", err)
	}
	str := func(i uint64) string {
		if i < uint64(len(strs)) {
			return strs[i]
		}
		return ""
	}
	vi := len(types) - 1
	for i, t := range types {
		if str(t) == "cpu" {
			vi = i
		}
	}
	if vi < 0 {
		return nil, errors.New("profile: no sample types")
	}
	out := make([]stackSample, 0, len(samples))
	for _, s := range samples {
		if vi >= len(s.values) {
			return nil, errors.New("profile: sample without a cpu value")
		}
		var funcs []string
		for _, loc := range s.locs {
			for _, fid := range locFuncs[loc] {
				funcs = append(funcs, str(funcNames[fid]))
			}
		}
		out = append(out, stackSample{funcs: funcs, cpuNs: int64(s.values[vi])})
	}
	return out, nil
}

// appendRepeated appends one occurrence of a repeated integer field,
// which the encoder writes packed (one length-delimited run of varints)
// or unpacked (one varint per element).
func appendRepeated(dst *[]uint64, wire int, v uint64, b []byte) error {
	if wire == 0 {
		*dst = append(*dst, v)
		return nil
	}
	if wire != 2 {
		return fmt.Errorf("repeated integer with wire type %d", wire)
	}
	for len(b) > 0 {
		x, n := binary.Uvarint(b)
		if n <= 0 {
			return errors.New("truncated packed varint")
		}
		*dst = append(*dst, x)
		b = b[n:]
	}
	return nil
}

// walkMessage calls fn for every field of one protobuf message: varint
// fields carry their value in v, length-delimited fields their bytes in
// b; fixed-width fields are skipped.
func walkMessage(data []byte, fn func(field, wire int, v uint64, b []byte) error) error {
	for len(data) > 0 {
		key, n := binary.Uvarint(data)
		if n <= 0 {
			return errors.New("truncated field key")
		}
		data = data[n:]
		field, wire := int(key>>3), int(key&7)
		var v uint64
		var b []byte
		switch wire {
		case 0:
			if v, n = binary.Uvarint(data); n <= 0 {
				return errors.New("truncated varint")
			}
			data = data[n:]
		case 1, 5:
			w := 8
			if wire == 5 {
				w = 4
			}
			if len(data) < w {
				return errors.New("truncated fixed-width field")
			}
			data = data[w:]
			continue
		case 2:
			l, n := binary.Uvarint(data)
			if n <= 0 || uint64(len(data)-n) < l {
				return errors.New("truncated length-delimited field")
			}
			b, data = data[n:n+int(l)], data[n+int(l):]
		default:
			return fmt.Errorf("unsupported wire type %d", wire)
		}
		if err := fn(field, wire, v, b); err != nil {
			return err
		}
	}
	return nil
}
