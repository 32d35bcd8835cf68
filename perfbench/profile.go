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

// layerShares attributes CPU profile samples to layers by their stacks
// (see classify). Returned shares sum to 1 over all samples.
func layerShares(profiles []*bytes.Buffer) (map[string]float64, int64, error) {
	counts := map[string]int64{}
	var total int64
	for _, gz := range profiles {
		p, err := parseProfile(gz.Bytes())
		if err != nil {
			return nil, 0, err
		}
		for _, s := range p.samples {
			var frames []string
			for _, id := range s.locs {
				for _, fid := range p.locFuncs[id] {
					frames = append(frames, p.funcNames[fid])
				}
			}
			counts[classify(frames)] += s.count
			total += s.count
		}
	}
	shares := map[string]float64{}
	for _, name := range []string{"sim", "core", "mem", "hw", "kernel", "apps", "acopy",
		"runtime_sched", "runtime_gc", "runtime_maps", "other"} {
		if total > 0 {
			shares[name] = float64(counts[name]) / float64(total)
		} else {
			shares[name] = 0
		}
	}
	return shares, total, nil
}

// copierLayers maps the repository's packages to layers. Helper
// packages (cycles, units, topo, fault, obs) are absent: their frames
// are passed up to the caller's layer.
var copierLayers = map[string]string{
	"copier/internal/sim":       "sim",
	"copier/internal/core":      "core",
	"copier/internal/mem":       "mem",
	"copier/internal/hw":        "hw",
	"copier/internal/kernel":    "kernel",
	"copier/internal/libcopier": "kernel",
	"copier/internal/baseline":  "apps",
	"copier/internal/acopy":     "acopy",
}

var copierHelpers = map[string]bool{
	"copier/internal/cycles": true,
	"copier/internal/units":  true,
	"copier/internal/topo":   true,
	"copier/internal/fault":  true,
	"copier/internal/obs":    true,
}

// runtime function-name prefixes for the map and GC shares; every
// other runtime function is scheduling unless it is a helper.
var (
	mapPrefixes = []string{"runtime.map", "internal/runtime/maps.", "runtime.aeshash", "runtime.memhash",
		"runtime.strhash", "runtime.interhash", "runtime.nilinterhash", "runtime.efaceHash", "runtime.typehash"}
	gcPrefixes = []string{"runtime.gc", "runtime.mark", "runtime.scan", "runtime.sweep", "runtime.bgsweep",
		"runtime.bgscavenge", "runtime.scavenge", "runtime.greyobject", "runtime.findObject", "runtime.wbBuf",
		"runtime.mallocgc", "runtime.nextFreeFast", "runtime.heapSetType", "runtime.(*gcWork)", "runtime.(*gcBits)",
		"runtime.(*mspan)", "runtime.(*mcache)", "runtime.(*mcentral)", "runtime.(*mheap)", "runtime.(*pageAlloc)",
		"runtime.(*gcControllerState)", "runtime.(*spanSet)", "runtime.(*sweepLocked)", "runtime.bulkBarrier",
		"runtime.gcWriteBarrier", "runtime.wbMove", "runtime.typePointers", "runtime.(*mSpanStateBox)",
		"runtime.(*scavenger", "runtime.(*scavengeIndex)", "runtime.sysUsed", "runtime.sysAlloc", "runtime.sysUnused"}
	helperPrefixes = []string{"runtime.memmove", "runtime.memclr", "runtime.memequal", "runtime.duff",
		"runtime.typedmemmove", "runtime.typedslicecopy", "runtime.nanotime", "runtime.walltime", "runtime.cputicks",
		"runtime.growslice", "runtime.makeslice", "runtime.makemap", "runtime.newobject", "runtime.convT",
		"runtime.concatstring", "runtime.slicebytetostring", "runtime.rawstring", "runtime.rawbyteslice",
		"runtime.panicIndex", "runtime.memhash", "runtime.time_now", "runtime.add", "runtime.mmap", "runtime.madvise",
		"runtime.sysMmap", "runtime.sysFault"}
)

func hasPrefix(s string, prefixes []string) bool {
	for _, p := range prefixes {
		if strings.HasPrefix(s, p) {
			return true
		}
	}
	return false
}

// funcPackage returns the import path of a symbol such as
// "copier/internal/core.(*Service).dispatch".
func funcPackage(fn string) string {
	slash := strings.LastIndexByte(fn, '/')
	dot := strings.IndexByte(fn[slash+1:], '.')
	if dot < 0 {
		return fn
	}
	return fn[:slash+1+dot]
}

// classify names the layer of one stack, leaf first. A leaf in the
// runtime is scheduling, GC or map work unless it is a helper; a helper
// or standard-library leaf is charged to the first caller in this
// repository.
func classify(frames []string) string {
	if len(frames) > 0 {
		leaf := frames[0]
		pkg := funcPackage(leaf)
		isRuntime := pkg == "runtime" || strings.HasPrefix(pkg, "internal/runtime/") || strings.HasPrefix(pkg, "runtime/internal/")
		switch {
		case hasPrefix(leaf, mapPrefixes):
			return "runtime_maps"
		case hasPrefix(leaf, gcPrefixes):
			return "runtime_gc"
		case isRuntime && !hasPrefix(leaf, helperPrefixes):
			return "runtime_sched"
		}
	}
	for _, fn := range frames {
		pkg := funcPackage(fn)
		if l, ok := copierLayers[pkg]; ok {
			return l
		}
		if strings.HasPrefix(pkg, "copier/internal/apps/") {
			return "apps"
		}
		if pkg == "main" || strings.HasPrefix(pkg, "copier/") && !copierHelpers[pkg] {
			return "other"
		}
	}
	return "other"
}

// profile is the part of a pprof protobuf the shares need.
type profile struct {
	samples   []profSample
	locFuncs  map[uint64][]uint64 // location id -> function ids, leaf first
	funcNames map[uint64]string
}

type profSample struct {
	locs  []uint64
	count int64
}

// parseProfile decodes a gzipped pprof profile (profile.proto):
// Profile{2: sample, 4: location, 5: function, 6: string_table},
// Sample{1: location_id, 2: value}, Location{1: id, 4: line},
// Line{1: function_id}, Function{1: id, 2: name}.
func parseProfile(gz []byte) (*profile, error) {
	zr, err := gzip.NewReader(bytes.NewReader(gz))
	if err != nil {
		return nil, fmt.Errorf("profile: %w", err)
	}
	raw, err := io.ReadAll(zr)
	if err != nil {
		return nil, fmt.Errorf("profile: %w", err)
	}
	p := &profile{locFuncs: map[uint64][]uint64{}, funcNames: map[uint64]string{}}
	var strs []string
	funcName := map[uint64]int64{}
	err = fields(raw, func(num int, v uint64, b []byte) error {
		switch num {
		case 2:
			var s profSample
			err := fields(b, func(num int, v uint64, b []byte) error {
				switch num {
				case 1:
					s.locs = appendPacked(s.locs, v, b)
				case 2:
					vals := appendPacked(nil, v, b)
					if s.count == 0 && len(vals) > 0 {
						s.count = int64(vals[0])
					}
				}
				return nil
			})
			p.samples = append(p.samples, s)
			return err
		case 4:
			var id uint64
			var fids []uint64
			err := fields(b, func(num int, v uint64, b []byte) error {
				switch num {
				case 1:
					id = v
				case 4:
					return fields(b, func(num int, v uint64, _ []byte) error {
						if num == 1 {
							fids = append(fids, v)
						}
						return nil
					})
				}
				return nil
			})
			p.locFuncs[id] = fids
			return err
		case 5:
			var id uint64
			var name int64
			err := fields(b, func(num int, v uint64, _ []byte) error {
				switch num {
				case 1:
					id = v
				case 2:
					name = int64(v)
				}
				return nil
			})
			funcName[id] = name
			return err
		case 6:
			strs = append(strs, string(b))
		}
		return nil
	})
	if err != nil {
		return nil, err
	}
	for id, si := range funcName {
		if si >= 0 && si < int64(len(strs)) {
			p.funcNames[id] = strs[si]
		}
	}
	return p, nil
}

var errProto = errors.New("profile: malformed protobuf")

// fields walks one protobuf message, calling fn with each field's
// number and either its varint value or its length-delimited bytes.
func fields(b []byte, fn func(num int, v uint64, b []byte) error) error {
	for len(b) > 0 {
		key, n := binary.Uvarint(b)
		if n <= 0 {
			return errProto
		}
		b = b[n:]
		num, wire := int(key>>3), key&7
		var v uint64
		var body []byte
		switch wire {
		case 0:
			v, n = binary.Uvarint(b)
			if n <= 0 {
				return errProto
			}
			b = b[n:]
		case 1:
			if len(b) < 8 {
				return errProto
			}
			b = b[8:]
			continue
		case 2:
			l, n := binary.Uvarint(b)
			if n <= 0 || uint64(len(b)-n) < l {
				return errProto
			}
			body = b[n : n+int(l)]
			b = b[n+int(l):]
		case 5:
			if len(b) < 4 {
				return errProto
			}
			b = b[4:]
			continue
		default:
			return errProto
		}
		if err := fn(num, v, body); err != nil {
			return err
		}
	}
	return nil
}

// appendPacked appends a repeated varint field given either as one
// varint (v, b == nil) or packed (b).
func appendPacked(dst []uint64, v uint64, b []byte) []uint64 {
	if b == nil {
		return append(dst, v)
	}
	for len(b) > 0 {
		x, n := binary.Uvarint(b)
		if n <= 0 {
			break
		}
		dst = append(dst, x)
		b = b[n:]
	}
	return dst
}
