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

// cpuLayers are the host_cpu.* buckets, in output order: the repository's
// packages, the Go runtime split by what it is doing, and everything else
// (the standard library, the experiment and testbed glue, this driver).
var cpuLayers = []string{
	"sim", "ipc", "tcpeng", "ipeng", "nicdev", "wire", "stack", "socketlib",
	"sysserver", "app", "proto", "bufpool", "steer", "core", "pfilter",
	"runtime_gc", "runtime_alloc", "runtime_maps", "runtime_other", "other",
}

// foldCPUProfile decodes a gzipped pprof CPU profile and returns each
// layer's share of the sampled CPU time, counting self (flat) time only:
// a sample is charged to the innermost function of its leaf frame.
func foldCPUProfile(gz []byte) (map[string]float64, error) {
	zr, err := gzip.NewReader(bytes.NewReader(gz))
	if err != nil {
		return nil, fmt.Errorf("cpu profile: %w", err)
	}
	raw, err := io.ReadAll(zr)
	if err != nil {
		return nil, fmt.Errorf("cpu profile: %w", err)
	}
	p, err := decodeProfile(raw)
	if err != nil {
		return nil, fmt.Errorf("cpu profile: %w", err)
	}
	byLayer := map[string]int64{}
	var total int64
	for _, s := range p.samples {
		if len(s.locs) == 0 || len(s.values) == 0 {
			continue
		}
		v := s.values[len(s.values)-1] // CPU nanoseconds
		name := ""
		if fn, ok := p.locFunc[s.locs[0]]; ok && int(p.funcName[fn]) < len(p.strings) {
			name = p.strings[p.funcName[fn]]
		}
		byLayer[cpuLayer(name)] += v
		total += v
	}
	out := make(map[string]float64, len(cpuLayers))
	for _, l := range cpuLayers {
		if total > 0 {
			out[l] = float64(byLayer[l]) / float64(total)
		} else {
			out[l] = 0
		}
	}
	return out, nil
}

// cpuLayer maps a fully qualified Go function name to its host_cpu bucket.
func cpuLayer(fn string) string {
	if rest, ok := strings.CutPrefix(fn, "neat/internal/"); ok {
		pkg := rest
		if i := strings.IndexAny(pkg, "./"); i >= 0 {
			pkg = pkg[:i]
		}
		for _, l := range cpuLayers {
			if l == pkg {
				return l
			}
		}
		return "other"
	}
	if !strings.HasPrefix(fn, "runtime.") && !strings.HasPrefix(fn, "internal/runtime/") {
		return "other"
	}
	has := func(subs ...string) bool {
		for _, s := range subs {
			if strings.Contains(fn, s) {
				return true
			}
		}
		return false
	}
	switch {
	case has("internal/runtime/maps", "runtime.map", "hash"):
		return "runtime_maps"
	case has("gcBgMark", "gcDrain", "gcMark", "scanobject", "scanblock", "scanstack",
		"greyobject", "findObject", "markroot", "markBits", "wbBuf", "Barrier",
		"sweep", "gcWork", "typePointers", "spanOf", "gcmarknewobject"):
		return "runtime_gc"
	case has("malloc", "mcache", "mcentral", "mheap", "newobject", "newarray",
		"makeslice", "growslice", "nextFree", "heapSetType", "memclrNoHeapPointers"):
		return "runtime_alloc"
	}
	return "runtime_other"
}

// profile is the subset of the pprof protobuf (profile.proto) the fold
// needs: samples by leaf-first location ids, and location → innermost
// function → name.
type profile struct {
	samples  []sample
	locFunc  map[uint64]uint64 // location id → function id of its first line
	funcName map[uint64]int64  // function id → string table index
	strings  []string
}

type sample struct {
	locs   []uint64
	values []int64
}

func decodeProfile(b []byte) (*profile, error) {
	p := &profile{locFunc: map[uint64]uint64{}, funcName: map[uint64]int64{}}
	err := eachField(b, func(num int, wt int, v uint64, data []byte) error {
		switch num {
		case 2: // sample
			var s sample
			err := eachField(data, func(num int, wt int, v uint64, data []byte) error {
				switch num {
				case 1:
					return appendUints(&s.locs, wt, v, data)
				case 2:
					var u []uint64
					if err := appendUints(&u, wt, v, data); err != nil {
						return err
					}
					for _, x := range u {
						s.values = append(s.values, int64(x))
					}
				}
				return nil
			})
			p.samples = append(p.samples, s)
			return err
		case 4: // location
			var id, fn uint64
			first := true
			err := eachField(data, func(num int, wt int, v uint64, data []byte) error {
				switch num {
				case 1:
					id = v
				case 4: // line: the first one is the innermost inlined call
					if !first {
						return nil
					}
					first = false
					return eachField(data, func(num int, wt int, v uint64, _ []byte) error {
						if num == 1 {
							fn = v
						}
						return nil
					})
				}
				return nil
			})
			p.locFunc[id] = fn
			return err
		case 5: // function
			var id uint64
			var name int64
			err := eachField(data, func(num int, wt int, v uint64, _ []byte) error {
				switch num {
				case 1:
					id = v
				case 2:
					name = int64(v)
				}
				return nil
			})
			p.funcName[id] = name
			return err
		case 6: // string table
			p.strings = append(p.strings, string(data))
		}
		return nil
	})
	return p, err
}

// appendUints adds one varint field, or a packed run of them, to dst.
func appendUints(dst *[]uint64, wt int, v uint64, data []byte) error {
	if wt == 0 {
		*dst = append(*dst, v)
		return nil
	}
	for len(data) > 0 {
		x, n := binary.Uvarint(data)
		if n <= 0 {
			return errors.New("bad packed varint")
		}
		*dst = append(*dst, x)
		data = data[n:]
	}
	return nil
}

// eachField walks the top-level fields of one protobuf message, passing
// varints in v and length-delimited payloads in data.
func eachField(b []byte, fn func(num int, wt int, v uint64, data []byte) error) error {
	for len(b) > 0 {
		key, n := binary.Uvarint(b)
		if n <= 0 {
			return errors.New("bad field key")
		}
		b = b[n:]
		num, wt := int(key>>3), int(key&7)
		var v uint64
		var data []byte
		switch wt {
		case 0:
			v, n = binary.Uvarint(b)
			if n <= 0 {
				return errors.New("bad varint")
			}
			b = b[n:]
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
			data = b[n : n+int(l)]
			b = b[n+int(l):]
		case 5:
			if len(b) < 4 {
				return errors.New("short fixed32")
			}
			b = b[4:]
		default:
			return fmt.Errorf("unsupported wire type %d", wt)
		}
		if err := fn(num, wt, v, data); err != nil {
			return err
		}
	}
	return nil
}
