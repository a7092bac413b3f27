package main

import (
	"bytes"
	"compress/gzip"
	"errors"
	"fmt"
	"io"
	"strings"
)

// This file reads the one thing the traced run needs from a
// runtime/pprof CPU profile: flat CPU time per function, that is, time
// attributed to the innermost frame of each sample. The profile is the
// gzipped protobuf of github.com/google/pprof/proto/profile.proto; only
// the fields below are decoded.
const (
	profSampleType  = 1 // Profile.sample_type: ValueType
	profSample      = 2 // Profile.sample: Sample
	profLocation    = 4 // Profile.location: Location
	profFunction    = 5 // Profile.function: Function
	profStringTable = 6 // Profile.string_table: string

	valueTypeType = 1 // ValueType.type: string index

	sampleLocationID = 1 // Sample.location_id: packed uint64, leaf first
	sampleValue      = 2 // Sample.value: packed int64, one per sample_type

	locationID   = 1 // Location.id
	locationLine = 4 // Location.line: Line, innermost inlined frame first

	lineFunctionID = 1 // Line.function_id

	functionID   = 1 // Function.id
	functionName = 2 // Function.name: string index
)

// pbField is one decoded protobuf field: a varint, or the bytes of a
// length-delimited value.
type pbField struct {
	num   int
	wire  int
	v     uint64
	bytes []byte
}

var errTruncated = errors.New("truncated protobuf")

func uvarint(b []byte) (uint64, int, error) {
	var v uint64
	for i := 0; i < len(b) && i < 10; i++ {
		v |= uint64(b[i]&0x7f) << (7 * i)
		if b[i] < 0x80 {
			return v, i + 1, nil
		}
	}
	return 0, 0, errTruncated
}

// pbFields splits a message into its fields.
func pbFields(b []byte) ([]pbField, error) {
	var out []pbField
	for len(b) > 0 {
		tag, n, err := uvarint(b)
		if err != nil {
			return nil, err
		}
		b = b[n:]
		f := pbField{num: int(tag >> 3), wire: int(tag & 7)}
		switch f.wire {
		case 0:
			if f.v, n, err = uvarint(b); err != nil {
				return nil, err
			}
			b = b[n:]
		case 1:
			if len(b) < 8 {
				return nil, errTruncated
			}
			b = b[8:]
		case 2:
			l, n, err := uvarint(b)
			if err != nil || uint64(len(b)-n) < l {
				return nil, errTruncated
			}
			f.bytes = b[n : n+int(l)]
			b = b[n+int(l):]
		case 5:
			if len(b) < 4 {
				return nil, errTruncated
			}
			b = b[4:]
		default:
			return nil, fmt.Errorf("unsupported protobuf wire type %d", f.wire)
		}
		out = append(out, f)
	}
	return out, nil
}

// pbUints reads a repeated integer field, packed or not.
func pbUints(f pbField, into []uint64) ([]uint64, error) {
	if f.wire == 0 {
		return append(into, f.v), nil
	}
	b := f.bytes
	for len(b) > 0 {
		v, n, err := uvarint(b)
		if err != nil {
			return nil, err
		}
		into = append(into, v)
		b = b[n:]
	}
	return into, nil
}

// flatCPU returns the flat CPU nanoseconds per function name of a
// gzipped CPU profile.
func flatCPU(gz []byte) (map[string]int64, error) {
	zr, err := gzip.NewReader(bytes.NewReader(gz))
	if err != nil {
		return nil, fmt.Errorf("cpu profile: %w", err)
	}
	raw, err := io.ReadAll(zr)
	if err != nil {
		return nil, fmt.Errorf("cpu profile: %w", err)
	}
	fields, err := pbFields(raw)
	if err != nil {
		return nil, fmt.Errorf("cpu profile: %w", err)
	}

	var strs []string
	var sampleTypes []uint64 // string indexes
	var samples, locations, functions [][]byte
	for _, f := range fields {
		switch f.num {
		case profStringTable:
			strs = append(strs, string(f.bytes))
		case profSampleType:
			sub, err := pbFields(f.bytes)
			if err != nil {
				return nil, err
			}
			var typ uint64
			for _, s := range sub {
				if s.num == valueTypeType {
					typ = s.v
				}
			}
			sampleTypes = append(sampleTypes, typ)
		case profSample:
			samples = append(samples, f.bytes)
		case profLocation:
			locations = append(locations, f.bytes)
		case profFunction:
			functions = append(functions, f.bytes)
		}
	}
	str := func(i uint64) string {
		if i < uint64(len(strs)) {
			return strs[i]
		}
		return ""
	}
	cpuIdx := -1
	for i, t := range sampleTypes {
		if str(t) == "cpu" {
			cpuIdx = i
		}
	}
	if cpuIdx < 0 {
		return nil, errors.New("cpu profile: no cpu sample type")
	}

	funcName := map[uint64]string{}
	for _, b := range functions {
		sub, err := pbFields(b)
		if err != nil {
			return nil, err
		}
		var id, name uint64
		for _, s := range sub {
			switch s.num {
			case functionID:
				id = s.v
			case functionName:
				name = s.v
			}
		}
		funcName[id] = str(name)
	}
	leafFunc := map[uint64]string{} // location id -> innermost function
	for _, b := range locations {
		sub, err := pbFields(b)
		if err != nil {
			return nil, err
		}
		var id uint64
		leaf, haveLeaf := "", false
		for _, s := range sub {
			switch s.num {
			case locationID:
				id = s.v
			case locationLine:
				if haveLeaf {
					continue
				}
				line, err := pbFields(s.bytes)
				if err != nil {
					return nil, err
				}
				for _, lf := range line {
					if lf.num == lineFunctionID {
						leaf, haveLeaf = funcName[lf.v], true
					}
				}
			}
		}
		leafFunc[id] = leaf
	}

	flat := map[string]int64{}
	for _, b := range samples {
		sub, err := pbFields(b)
		if err != nil {
			return nil, err
		}
		var locs, vals []uint64
		for _, s := range sub {
			switch s.num {
			case sampleLocationID:
				if locs, err = pbUints(s, locs); err != nil {
					return nil, err
				}
			case sampleValue:
				if vals, err = pbUints(s, vals); err != nil {
					return nil, err
				}
			}
		}
		if len(locs) == 0 || cpuIdx >= len(vals) {
			continue
		}
		flat[leafFunc[locs[0]]] += int64(vals[cpuIdx])
	}
	return flat, nil
}

// layerOf maps a Go function name to the repository layer it belongs
// to: "vm" for diverseav/internal/vm, "fi" for diverseav/internal/fi and
// its surfaces, "runtime" for the Go runtime, "" for anything else.
func layerOf(fn string) string {
	pkg := fn
	if slash := strings.LastIndexByte(pkg, '/'); slash >= 0 {
		if dot := strings.IndexByte(pkg[slash:], '.'); dot >= 0 {
			pkg = pkg[:slash+dot]
		}
	} else if dot := strings.IndexByte(pkg, '.'); dot >= 0 {
		pkg = pkg[:dot]
	}
	switch {
	case strings.HasPrefix(pkg, "diverseav/internal/"):
		rest := strings.TrimPrefix(pkg, "diverseav/internal/")
		if slash := strings.IndexByte(rest, '/'); slash >= 0 {
			rest = rest[:slash]
		}
		return rest
	case pkg == "runtime" || strings.HasPrefix(pkg, "runtime/") || strings.HasPrefix(pkg, "internal/runtime/"):
		return "runtime"
	}
	return ""
}
