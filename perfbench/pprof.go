package main

import (
	"bytes"
	"compress/gzip"
	"errors"
	"fmt"
	"io"
	"path"
	"strings"
)

// layers are the buckets CPU-profile self samples are sorted into,
// named after the internal/ packages; "instruments" gathers the opt-in
// observability code, and "other" takes every sample no layer claims
// (the benchmark itself, addrmap, stats, the standard library).
var layers = []string{"trace", "cpu", "cache", "memctrl", "core", "dram", "sim", "instruments", "runtime", "other"}

// instrumentFiles are the memctrl files that belong to the instruments
// layer rather than to the controller.
var instrumentFiles = map[string]bool{"interference.go": true, "fairmon.go": true}

// pkgOf returns the package path of a Go symbol name such as
// "repro/internal/memctrl.(*Controller).Tick".
func pkgOf(fn string) string {
	slash := strings.LastIndex(fn, "/")
	dot := strings.Index(fn[slash+1:], ".")
	if dot < 0 {
		return fn
	}
	return fn[:slash+1+dot]
}

// layerOf maps a leaf frame (function name and source file) to its layer.
func layerOf(fn, file string) string {
	pkg := pkgOf(fn)
	if pkg == "runtime" || strings.HasPrefix(pkg, "internal/runtime/") {
		return "runtime"
	}
	name, ok := strings.CutPrefix(pkg, "repro/internal/")
	if !ok {
		return "other"
	}
	switch name {
	case "memctrl":
		if instrumentFiles[path.Base(file)] {
			return "instruments"
		}
		return "memctrl"
	case "metrics":
		return "instruments"
	case "trace", "cpu", "cache", "core", "dram", "sim":
		return name
	}
	return "other"
}

// selfSamples decodes a gzipped pprof CPU profile and returns its
// sample counts by the layer of each sample's leaf frame.
func selfSamples(gz []byte) (map[string]int64, error) {
	zr, err := gzip.NewReader(bytes.NewReader(gz))
	if err != nil {
		return nil, fmt.Errorf("profile: %w", err)
	}
	raw, err := io.ReadAll(zr)
	if err != nil {
		return nil, fmt.Errorf("profile: %w", err)
	}
	p, err := decodeProfile(raw)
	if err != nil {
		return nil, err
	}
	out := make(map[string]int64, len(layers))
	for _, s := range p.samples {
		if len(s.locs) == 0 || len(s.values) == 0 {
			continue
		}
		layer := "other"
		if loc := p.locs[s.locs[0]]; len(loc) > 0 {
			// The first line of a location is the innermost frame;
			// the last is the function the code was inlined into.
			inner, outer := p.funcs[loc[0]], p.funcs[loc[len(loc)-1]]
			layer = sampleLayer(p.str(inner.name), p.str(inner.file), p.str(outer.name), p.str(outer.file))
		}
		out[layer] += s.values[0]
	}
	return out, nil
}

// sampleLayer charges a sample to the layer of its innermost frame,
// with one exception: an instruments hook inlined into another layer's
// function is charged to that function. The hooks sit behind the
// caller's nil check, and the line table can place the caller's own
// instructions on the inlined hook: without the exception, saturated
// runs with every instrument off show samples in interference.go.
func sampleLayer(fn, file, outerFn, outerFile string) string {
	l := layerOf(fn, file)
	if l == "instruments" {
		if o := layerOf(outerFn, outerFile); o != "instruments" {
			return o
		}
	}
	return l
}

// The decoder below reads just the parts of profile.proto the bucketing
// needs: samples, locations, functions and the string table.

type pSample struct {
	locs   []uint64
	values []int64
}

type pFunc struct{ name, file int64 }

type profile struct {
	samples []pSample
	locs    map[uint64][]uint64 // location id -> function ids, innermost first
	funcs   map[uint64]pFunc
	strs    []string
}

func (p *profile) str(i int64) string {
	if i < 0 || i >= int64(len(p.strs)) {
		return ""
	}
	return p.strs[i]
}

var errTruncated = errors.New("profile: truncated protobuf")

// pbuf walks one protobuf message.
type pbuf struct{ b []byte }

func (d *pbuf) varint() (uint64, error) {
	var v uint64
	for shift := uint(0); shift < 64; shift += 7 {
		if len(d.b) == 0 {
			return 0, errTruncated
		}
		c := d.b[0]
		d.b = d.b[1:]
		v |= uint64(c&0x7f) << shift
		if c < 0x80 {
			return v, nil
		}
	}
	return 0, errors.New("profile: varint overflow")
}

// field returns the next field's number and wire type, with its varint
// value (wire type 0) or its bytes (wire type 2).
func (d *pbuf) field() (num int, wire int, v uint64, data []byte, err error) {
	key, err := d.varint()
	if err != nil {
		return 0, 0, 0, nil, err
	}
	num, wire = int(key>>3), int(key&7)
	switch wire {
	case 0:
		v, err = d.varint()
	case 1:
		if len(d.b) < 8 {
			return 0, 0, 0, nil, errTruncated
		}
		d.b = d.b[8:]
	case 2:
		var n uint64
		if n, err = d.varint(); err == nil {
			if n > uint64(len(d.b)) {
				return 0, 0, 0, nil, errTruncated
			}
			data, d.b = d.b[:n], d.b[n:]
		}
	case 5:
		if len(d.b) < 4 {
			return 0, 0, 0, nil, errTruncated
		}
		d.b = d.b[4:]
	default:
		err = fmt.Errorf("profile: wire type %d", wire)
	}
	return num, wire, v, data, err
}

// uints appends a repeated integer field, packed (wire type 2) or not.
func uints(dst []uint64, wire int, v uint64, data []byte) ([]uint64, error) {
	if wire == 0 {
		return append(dst, v), nil
	}
	d := pbuf{data}
	for len(d.b) > 0 {
		x, err := d.varint()
		if err != nil {
			return nil, err
		}
		dst = append(dst, x)
	}
	return dst, nil
}

func decodeProfile(b []byte) (*profile, error) {
	p := &profile{locs: map[uint64][]uint64{}, funcs: map[uint64]pFunc{}}
	d := pbuf{b}
	for len(d.b) > 0 {
		num, _, _, data, err := d.field()
		if err != nil {
			return nil, err
		}
		switch num {
		case 2:
			s, err := decodeSample(data)
			if err != nil {
				return nil, err
			}
			p.samples = append(p.samples, s)
		case 4:
			id, fns, err := decodeLocation(data)
			if err != nil {
				return nil, err
			}
			p.locs[id] = fns
		case 5:
			id, f, err := decodeFunction(data)
			if err != nil {
				return nil, err
			}
			p.funcs[id] = f
		case 6:
			p.strs = append(p.strs, string(data))
		}
	}
	return p, nil
}

func decodeSample(b []byte) (pSample, error) {
	var s pSample
	var vals []uint64
	d := pbuf{b}
	for len(d.b) > 0 {
		num, wire, v, data, err := d.field()
		if err != nil {
			return s, err
		}
		switch num {
		case 1:
			s.locs, err = uints(s.locs, wire, v, data)
		case 2:
			vals, err = uints(vals, wire, v, data)
		}
		if err != nil {
			return s, err
		}
	}
	for _, v := range vals {
		s.values = append(s.values, int64(v))
	}
	return s, nil
}

func decodeLocation(b []byte) (uint64, []uint64, error) {
	var id uint64
	var fns []uint64
	d := pbuf{b}
	for len(d.b) > 0 {
		num, _, v, data, err := d.field()
		if err != nil {
			return 0, nil, err
		}
		switch num {
		case 1:
			id = v
		case 4: // Line
			ld := pbuf{data}
			for len(ld.b) > 0 {
				lnum, _, lv, _, err := ld.field()
				if err != nil {
					return 0, nil, err
				}
				if lnum == 1 {
					fns = append(fns, lv)
				}
			}
		}
	}
	return id, fns, nil
}

func decodeFunction(b []byte) (uint64, pFunc, error) {
	var id uint64
	var f pFunc
	d := pbuf{b}
	for len(d.b) > 0 {
		num, _, v, _, err := d.field()
		if err != nil {
			return 0, f, err
		}
		switch num {
		case 1:
			id = v
		case 2:
			f.name = int64(v)
		case 4:
			f.file = int64(v)
		}
	}
	return id, f, nil
}
