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

// layers are the repository's modules as the benchmark reports them, plus
// bench (this program's own code) and runtime (samples with no repo frame,
// such as GC workers, the scheduler and idle HTTP plumbing).
var layers = []string{
	"sim", "cache.sa", "cache.fa", "coherence", "dve", "mem", "noc",
	"workload", "topology", "experiments", "results", "serve", "bench", "runtime",
}

// layerOfPkg maps a repository package to its layer. Repository packages
// not listed (stats, telemetry, obslog, the root API, ...) are helpers:
// their samples go to the nearest calling frame that has a layer.
var layerOfPkg = map[string]string{
	"dve/internal/sim":         "sim",
	"dve/internal/cache":       "cache",
	"dve/internal/coherence":   "coherence",
	"dve/internal/dve":         "dve",
	"dve/internal/mem":         "mem",
	"dve/internal/noc":         "noc",
	"dve/internal/workload":    "workload",
	"dve/internal/topology":    "topology",
	"dve/internal/experiments": "experiments",
	"dve/internal/results":     "results",
	"dve/internal/serve":       "serve",
	"main":                     "bench",
}

// funcPackage extracts the import path from a Go symbol name such as
// "dve/internal/cache.(*Cache).Lookup" or "runtime.mallocgc".
func funcPackage(fn string) string {
	slash := strings.LastIndexByte(fn, '/')
	if dot := strings.IndexByte(fn[slash+1:], '.'); dot >= 0 {
		return fn[:slash+1+dot]
	}
	return fn
}

// attribute charges one stack (innermost frame first) to a layer: the
// innermost frame whose package has a layer decides, so map probes,
// allocation and hashing count against the layer that called them. The
// cache package serves two layers: arrays reached from the replica
// directory (package dve) are cache.fa, all others cache.sa.
func attribute(stack []string) string {
	for i, fn := range stack {
		l, ok := layerOfPkg[funcPackage(fn)]
		if !ok {
			continue
		}
		if l != "cache" {
			return l
		}
		for _, caller := range stack[i+1:] {
			cl, ok := layerOfPkg[funcPackage(caller)]
			if !ok || cl == "cache" {
				continue
			}
			if cl == "dve" {
				return "cache.fa"
			}
			break
		}
		return "cache.sa"
	}
	return "runtime"
}

// profileSample is one decoded CPU profile sample.
type profileSample struct {
	stack []string // function names, innermost first (inlined frames included)
	count int64    // profiling interrupts that hit this stack
	cpu   int64    // nanoseconds of CPU the sample stands for
}

// layerCPU is a profile's CPU time per layer.
type layerCPU struct {
	samples int64
	total   int64            // nanoseconds
	byLayer map[string]int64 // nanoseconds
}

func attributeAll(samples []profileSample) layerCPU {
	out := layerCPU{byLayer: make(map[string]int64, len(layers))}
	for _, s := range samples {
		out.samples += s.count
		out.total += s.cpu
		out.byLayer[attribute(s.stack)] += s.cpu
	}
	return out
}

// share is a layer's fraction of the profiled CPU time.
func (l layerCPU) share(layer string) float64 {
	return ratio(float64(l.byLayer[layer]), float64(l.total))
}

// The decoder below reads the subset of the pprof profile.proto format
// that runtime/pprof writes for a CPU profile: sample types, samples,
// locations with their (possibly inlined) lines, functions and the string
// table. It exists because the standard library keeps its profile parser
// internal.

// Field numbers in profile.proto.
const (
	fProfileSampleType = 1
	fProfileSample     = 2
	fProfileLocation   = 4
	fProfileFunction   = 5
	fProfileString     = 6
	fProfilePeriod     = 12

	fValueTypeType = 1

	fSampleLocation = 1
	fSampleValue    = 2

	fLocationID   = 1
	fLocationLine = 4
	fLineFunction = 1

	fFunctionID   = 1
	fFunctionName = 2
)

// pbField is one protobuf field: a varint/fixed value or a byte payload.
type pbField struct {
	num  int
	wire int
	v    uint64
	b    []byte
}

// pbFields splits a protobuf message into its fields.
func pbFields(b []byte) ([]pbField, error) {
	var out []pbField
	for len(b) > 0 {
		key, n := binary.Uvarint(b)
		if n <= 0 {
			return nil, errors.New("profile: bad field key")
		}
		b = b[n:]
		f := pbField{num: int(key >> 3), wire: int(key & 7)}
		switch f.wire {
		case 0:
			f.v, n = binary.Uvarint(b)
			if n <= 0 {
				return nil, errors.New("profile: bad varint")
			}
			b = b[n:]
		case 1:
			if len(b) < 8 {
				return nil, errors.New("profile: short fixed64")
			}
			f.v, b = binary.LittleEndian.Uint64(b), b[8:]
		case 2:
			l, n := binary.Uvarint(b)
			if n <= 0 || uint64(len(b)-n) < l {
				return nil, errors.New("profile: bad length-delimited field")
			}
			f.b, b = b[n:n+int(l)], b[n+int(l):]
		case 5:
			if len(b) < 4 {
				return nil, errors.New("profile: short fixed32")
			}
			f.v, b = uint64(binary.LittleEndian.Uint32(b)), b[4:]
		default:
			return nil, fmt.Errorf("profile: unsupported wire type %d", f.wire)
		}
		out = append(out, f)
	}
	return out, nil
}

// pbVarints returns a repeated integer field's values, packed or not.
func pbVarints(f pbField) ([]uint64, error) {
	if f.wire == 0 {
		return []uint64{f.v}, nil
	}
	var out []uint64
	b := f.b
	for len(b) > 0 {
		v, n := binary.Uvarint(b)
		if n <= 0 {
			return nil, errors.New("profile: bad packed varint")
		}
		out = append(out, v)
		b = b[n:]
	}
	return out, nil
}

// parseCPUProfile decodes a gzipped pprof CPU profile into samples.
func parseCPUProfile(gz []byte) ([]profileSample, error) {
	zr, err := gzip.NewReader(bytes.NewReader(gz))
	if err != nil {
		return nil, fmt.Errorf("profile: %w", err)
	}
	raw, err := io.ReadAll(zr)
	if err != nil {
		return nil, fmt.Errorf("profile: %w", err)
	}
	fields, err := pbFields(raw)
	if err != nil {
		return nil, err
	}
	var (
		strs      []string
		typeIdx   []uint64 // string index of each sample value's type
		period    int64
		funcName  = map[uint64]uint64{}   // function id -> string index
		locFuncs  = map[uint64][]uint64{} // location id -> function ids, innermost first
		rawSample []pbField
	)
	for _, f := range fields {
		switch f.num {
		case fProfileString:
			strs = append(strs, string(f.b))
		case fProfilePeriod:
			period = int64(f.v)
		case fProfileSampleType:
			sub, err := pbFields(f.b)
			if err != nil {
				return nil, err
			}
			var t uint64
			for _, g := range sub {
				if g.num == fValueTypeType {
					t = g.v
				}
			}
			typeIdx = append(typeIdx, t)
		case fProfileFunction:
			sub, err := pbFields(f.b)
			if err != nil {
				return nil, err
			}
			var id, name uint64
			for _, g := range sub {
				switch g.num {
				case fFunctionID:
					id = g.v
				case fFunctionName:
					name = g.v
				}
			}
			funcName[id] = name
		case fProfileLocation:
			sub, err := pbFields(f.b)
			if err != nil {
				return nil, err
			}
			var id uint64
			var fns []uint64
			for _, g := range sub {
				switch g.num {
				case fLocationID:
					id = g.v
				case fLocationLine:
					line, err := pbFields(g.b)
					if err != nil {
						return nil, err
					}
					for _, h := range line {
						if h.num == fLineFunction {
							fns = append(fns, h.v)
						}
					}
				}
			}
			locFuncs[id] = fns
		case fProfileSample:
			rawSample = append(rawSample, f)
		}
	}
	str := func(i uint64) string {
		if i < uint64(len(strs)) {
			return strs[i]
		}
		return ""
	}
	// The CPU profile's values are (samples count, cpu nanoseconds); fall
	// back to count × period if a profile carries only the count.
	cpuIdx, countIdx := -1, 0
	for i, t := range typeIdx {
		switch str(t) {
		case "cpu":
			cpuIdx = i
		case "samples":
			countIdx = i
		}
	}
	out := make([]profileSample, 0, len(rawSample))
	for _, rs := range rawSample {
		sub, err := pbFields(rs.b)
		if err != nil {
			return nil, err
		}
		var s profileSample
		var vals []uint64
		for _, g := range sub {
			switch g.num {
			case fSampleLocation:
				ids, err := pbVarints(g)
				if err != nil {
					return nil, err
				}
				for _, id := range ids {
					for _, fid := range locFuncs[id] {
						s.stack = append(s.stack, str(funcName[fid]))
					}
				}
			case fSampleValue:
				vs, err := pbVarints(g)
				if err != nil {
					return nil, err
				}
				vals = append(vals, vs...)
			}
		}
		if countIdx < len(vals) {
			s.count = int64(vals[countIdx])
		}
		if cpuIdx >= 0 && cpuIdx < len(vals) {
			s.cpu = int64(vals[cpuIdx])
		} else {
			s.cpu = s.count * period
		}
		out = append(out, s)
	}
	return out, nil
}
