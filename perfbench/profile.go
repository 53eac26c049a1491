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

// cpuShares attributes the samples of a CPU profile (the gzipped protobuf
// runtime/pprof writes) to layers and returns the sample count per layer
// and the total. A sample belongs to the innermost frame of a pvmigrate
// package, so runtime and standard-library work (allocation, syscalls,
// math) is charged to the layer that asked for it; the benchmark's own
// frames count as "bench" when they are the innermost project code.
// Samples with no project frame are garbage collection, network stack,
// runtime scheduling or other.
func cpuShares(prof []byte) (map[string]int64, int64, error) {
	p, err := parseProfile(prof)
	if err != nil {
		return nil, 0, err
	}
	shares := map[string]int64{}
	var total int64
	for _, s := range p.samples {
		var stack []string
		for _, loc := range s.locs {
			stack = append(stack, p.locFuncs[loc]...)
		}
		shares[layerOf(stack)] += s.count
		total += s.count
	}
	return shares, total, nil
}

const modulePrefix = "pvmigrate/internal/"

// benchPackage prefixes the benchmark's own functions when it is built as
// a test binary; in the command they are main's.
const benchPackage = "pvmigrate/perfbench."

// layerOf names the layer a stack (innermost frame first) is charged to.
func layerOf(stack []string) string {
	for _, fn := range stack {
		if strings.HasPrefix(fn, modulePrefix) {
			pkg := fn[len(modulePrefix):]
			if i := strings.IndexAny(pkg, "./"); i >= 0 {
				pkg = pkg[:i]
			}
			return pkg
		}
		if strings.HasPrefix(fn, "main.") || strings.HasPrefix(fn, benchPackage) {
			return "bench"
		}
	}
	for _, fn := range stack {
		switch {
		case strings.HasPrefix(fn, "runtime.gcBgMarkWorker"), strings.HasPrefix(fn, "runtime.bgsweep"),
			strings.HasPrefix(fn, "runtime.bgscavenge"), strings.HasPrefix(fn, "runtime.gcStart"),
			strings.HasPrefix(fn, "runtime.forEachP"):
			return "gc"
		case strings.HasPrefix(fn, "net/http."), strings.HasPrefix(fn, "net."),
			strings.HasPrefix(fn, "internal/poll."), strings.HasPrefix(fn, "syscall."):
			return "netstack"
		}
	}
	for _, fn := range stack {
		if strings.HasPrefix(fn, "runtime.") {
			return "runtime"
		}
	}
	return "other"
}

type profSample struct {
	locs  []uint64
	count int64
}

type profile struct {
	samples  []profSample
	locFuncs map[uint64][]string // location id → function names, innermost first
}

// parseProfile decodes the fields of profile.proto the attribution needs:
// samples (location ids and the first value, the sample count),
// locations (their lines' function ids), functions (name string index)
// and the string table.
func parseProfile(data []byte) (*profile, error) {
	zr, err := gzip.NewReader(bytes.NewReader(data))
	if err != nil {
		return nil, fmt.Errorf("open cpu profile: %w", err)
	}
	raw, err := io.ReadAll(zr)
	if err != nil {
		return nil, fmt.Errorf("read cpu profile: %w", err)
	}
	var (
		samples   []profSample
		locLines  = map[uint64][]uint64{}
		funcNames = map[uint64]int64{}
		strs      []string
	)
	err = eachField(raw, func(num int, wire int, v uint64, b []byte) error {
		switch {
		case num == 2 && wire == 2: // Sample
			var s profSample
			first := true
			err := eachField(b, func(num, wire int, v uint64, b []byte) error {
				switch num {
				case 1:
					s.locs = appendVarints(s.locs, wire, v, b)
				case 2:
					if vals := appendVarints(nil, wire, v, b); first && len(vals) > 0 {
						s.count, first = int64(vals[0]), false
					}
				}
				return nil
			})
			samples = append(samples, s)
			return err
		case num == 4 && wire == 2: // Location
			var id uint64
			var fns []uint64
			err := eachField(b, func(num, wire int, v uint64, b []byte) error {
				switch {
				case num == 1:
					id = v
				case num == 4 && wire == 2: // Line
					return eachField(b, func(num, wire int, v uint64, _ []byte) error {
						if num == 1 {
							fns = append(fns, v)
						}
						return nil
					})
				}
				return nil
			})
			locLines[id] = fns
			return err
		case num == 5 && wire == 2: // Function
			var id uint64
			var name int64
			err := eachField(b, func(num, wire int, v uint64, _ []byte) error {
				switch num {
				case 1:
					id = v
				case 2:
					name = int64(v)
				}
				return nil
			})
			funcNames[id] = name
			return err
		case num == 6 && wire == 2: // string_table
			strs = append(strs, string(b))
		}
		return nil
	})
	if err != nil {
		return nil, err
	}
	p := &profile{samples: samples, locFuncs: map[uint64][]string{}}
	for id, fns := range locLines {
		for _, f := range fns {
			if i := funcNames[f]; i >= 0 && i < int64(len(strs)) {
				p.locFuncs[id] = append(p.locFuncs[id], strs[i])
			}
		}
	}
	return p, nil
}

// appendVarints appends a repeated varint field's values, packed or not.
func appendVarints(dst []uint64, wire int, v uint64, b []byte) []uint64 {
	if wire == 0 {
		return append(dst, v)
	}
	for len(b) > 0 {
		x, n := binary.Uvarint(b)
		if n <= 0 {
			return dst
		}
		dst = append(dst, x)
		b = b[n:]
	}
	return dst
}

var errProto = errors.New("malformed cpu profile")

// eachField walks one protobuf message, calling fn with each field's
// number, wire type and value (varint) or bytes (length-delimited).
func eachField(b []byte, fn func(num, wire int, v uint64, b []byte) error) error {
	for len(b) > 0 {
		key, n := binary.Uvarint(b)
		if n <= 0 {
			return errProto
		}
		b = b[n:]
		num, wire := int(key>>3), int(key&7)
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
			v, b = binary.LittleEndian.Uint64(b), b[8:]
		case 2:
			l, n := binary.Uvarint(b)
			if n <= 0 || uint64(len(b)-n) < l {
				return errProto
			}
			body, b = b[n:n+int(l)], b[n+int(l):]
		case 5:
			if len(b) < 4 {
				return errProto
			}
			v, b = uint64(binary.LittleEndian.Uint32(b)), b[4:]
		default:
			return errProto
		}
		if err := fn(num, wire, v, body); err != nil {
			return err
		}
	}
	return nil
}
