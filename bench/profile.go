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

// stack is one CPU-profile sample: its function names, innermost
// first (inlined frames included), and how many samples it stands for.
type stack struct {
	funcs []string
	count int64
}

// modulePrefix marks the simulator's own packages in function names.
const modulePrefix = "kloc/internal/"

// isLayer reports whether a kloc/internal package is a layer of the
// catalog ("gc" and "other" are not packages).
var isLayer = func() map[string]bool {
	m := make(map[string]bool)
	for _, l := range layers[:len(layers)-2] {
		m[l] = true
	}
	return m
}()

// layerOf names the layer a sample is charged to: the package of its
// innermost kloc/internal frame, so runtime helpers (malloc, map
// access, write barriers, GC assist) go to the layer that called them.
// A sample with no simulator frame is the GC's if it runs in a
// background mark worker, and "other" otherwise.
func layerOf(funcs []string) string {
	gcWorker := false
	for _, f := range funcs {
		if pkg, ok := strings.CutPrefix(f, modulePrefix); ok {
			if i := strings.IndexAny(pkg, "./"); i >= 0 {
				pkg = pkg[:i]
			}
			if isLayer[pkg] {
				return pkg
			}
			return "other"
		}
		if f == "runtime.gcBgMarkWorker" {
			gcWorker = true
		}
	}
	if gcWorker {
		return "gc"
	}
	return "other"
}

// fold sums samples by layer and returns the total.
func fold(stacks []stack) (map[string]int64, int64) {
	by := make(map[string]int64)
	var total int64
	for _, s := range stacks {
		by[layerOf(s.funcs)] += s.count
		total += s.count
	}
	return by, total
}

var errProfile = errors.New("malformed CPU profile")

// parseProfile decodes a gzipped pprof CPU profile (profile.proto)
// with the standard library only: samples (field 2), locations (4),
// functions (5) and the string table (6).
func parseProfile(gz []byte) ([]stack, error) {
	zr, err := gzip.NewReader(bytes.NewReader(gz))
	if err != nil {
		return nil, fmt.Errorf("CPU profile: %w", err)
	}
	raw, err := io.ReadAll(zr)
	if err != nil {
		return nil, fmt.Errorf("CPU profile: %w", err)
	}
	type sample struct {
		locs  []uint64
		count int64
	}
	var (
		samples  []sample
		strs     []string
		funcName = make(map[uint64]uint64)   // function id -> string index
		locFuncs = make(map[uint64][]uint64) // location id -> function ids, innermost first
	)
	err = eachField(raw, func(tag int, v uint64, data []byte) error {
		switch tag {
		case 2:
			var s sample
			var vals []uint64
			err := eachField(data, func(tag int, v uint64, data []byte) error {
				switch tag {
				case 1:
					return eachVarint(v, data, func(x uint64) { s.locs = append(s.locs, x) })
				case 2:
					return eachVarint(v, data, func(x uint64) { vals = append(vals, x) })
				}
				return nil
			})
			// The first value is the sample count; the second its CPU
			// nanoseconds.
			if len(vals) > 0 {
				s.count = int64(vals[0])
			}
			samples = append(samples, s)
			return err
		case 4:
			var id uint64
			var fns []uint64
			err := eachField(data, func(tag int, v uint64, data []byte) error {
				switch tag {
				case 1:
					id = v
				case 4:
					return eachField(data, func(tag int, v uint64, _ []byte) error {
						if tag == 1 {
							fns = append(fns, v)
						}
						return nil
					})
				}
				return nil
			})
			locFuncs[id] = fns
			return err
		case 5:
			var id, name uint64
			err := eachField(data, func(tag int, v uint64, _ []byte) error {
				switch tag {
				case 1:
					id = v
				case 2:
					name = v
				}
				return nil
			})
			funcName[id] = name
			return err
		case 6:
			strs = append(strs, string(data))
		}
		return nil
	})
	if err != nil {
		return nil, err
	}
	stacks := make([]stack, 0, len(samples))
	for _, s := range samples {
		st := stack{count: s.count}
		for _, loc := range s.locs {
			for _, fn := range locFuncs[loc] {
				i := funcName[fn]
				if i >= uint64(len(strs)) {
					return nil, errProfile
				}
				st.funcs = append(st.funcs, strs[i])
			}
		}
		stacks = append(stacks, st)
	}
	return stacks, nil
}

// eachField calls fn for every field of the protobuf message b: v is
// a varint field's value, data a length-delimited field's bytes (nil
// for varints). Fixed-width fields are skipped.
func eachField(b []byte, fn func(tag int, v uint64, data []byte) error) error {
	for len(b) > 0 {
		key, n := binary.Uvarint(b)
		if n <= 0 {
			return errProfile
		}
		b = b[n:]
		var v uint64
		var data []byte
		switch key & 7 {
		case 0:
			if v, n = binary.Uvarint(b); n <= 0 {
				return errProfile
			}
			b = b[n:]
		case 1, 5:
			w := 8
			if key&7 == 5 {
				w = 4
			}
			if len(b) < w {
				return errProfile
			}
			b = b[w:]
			continue
		case 2:
			l, n := binary.Uvarint(b)
			if n <= 0 || l > uint64(len(b)-n) {
				return errProfile
			}
			// Slicing the non-nil b keeps an empty field non-nil.
			data, b = b[n:n+int(l)], b[n+int(l):]
		default:
			return errProfile
		}
		if err := fn(int(key>>3), v, data); err != nil {
			return err
		}
	}
	return nil
}

// eachVarint visits a repeated varint field's values, whether it was
// written packed (data) or as one value (v).
func eachVarint(v uint64, data []byte, fn func(uint64)) error {
	if data == nil {
		fn(v)
		return nil
	}
	for len(data) > 0 {
		x, n := binary.Uvarint(data)
		if n <= 0 {
			return errProfile
		}
		fn(x)
		data = data[n:]
	}
	return nil
}
