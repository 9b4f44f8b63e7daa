package main

import (
	"bytes"
	"compress/gzip"
	"errors"
	"io"
	"strings"
)

// This file folds a runtime/pprof CPU profile by the package of each
// sample's leaf function. It reads the three profile.proto messages it needs
// (Sample, Location, Function) with a minimal protobuf wire decoder, so the
// benchmark needs no module beyond the standard library.

// cpuFold is the share of CPU samples by leaf package, plus the runtime
// leaf functions the ROADMAP names.
type cpuFold struct {
	total    int64
	byPkg    map[string]int64
	byRTKind map[string]int64 // memmove, memclr, crc32, malloc, gc
}

func (f *cpuFold) share(pkg string) float64 {
	if f == nil {
		return 0
	}
	return ratio(float64(f.byPkg[pkg]), float64(f.total))
}

func (f *cpuFold) rtShare(kind string) float64 {
	if f == nil {
		return 0
	}
	return ratio(float64(f.byRTKind[kind]), float64(f.total))
}

var errProto = errors.New("profile: malformed protobuf")

// protoField is one decoded field: varint value or length-delimited bytes.
type protoField struct {
	num  int
	wire int
	val  uint64
	data []byte
}

// readFields walks one message's fields.
func readFields(b []byte, fn func(protoField) error) error {
	for len(b) > 0 {
		key, n := uvarint(b)
		if n <= 0 {
			return errProto
		}
		b = b[n:]
		f := protoField{num: int(key >> 3), wire: int(key & 7)}
		switch f.wire {
		case 0:
			v, n := uvarint(b)
			if n <= 0 {
				return errProto
			}
			f.val, b = v, b[n:]
		case 1:
			if len(b) < 8 {
				return errProto
			}
			b = b[8:]
		case 2:
			l, n := uvarint(b)
			if n <= 0 || uint64(len(b)-n) < l {
				return errProto
			}
			f.data, b = b[n:n+int(l)], b[n+int(l):]
		case 5:
			if len(b) < 4 {
				return errProto
			}
			b = b[4:]
		default:
			return errProto
		}
		if err := fn(f); err != nil {
			return err
		}
	}
	return nil
}

func uvarint(b []byte) (uint64, int) {
	var x uint64
	for i, c := range b {
		if i == 10 {
			return 0, -1
		}
		x |= uint64(c&0x7f) << (7 * uint(i))
		if c < 0x80 {
			return x, i + 1
		}
	}
	return 0, 0
}

// repeatedVarints reads a repeated integer field, packed or not.
func repeatedVarints(f protoField, dst []uint64) []uint64 {
	if f.wire == 0 {
		return append(dst, f.val)
	}
	for b := f.data; len(b) > 0; {
		v, n := uvarint(b)
		if n <= 0 {
			break
		}
		dst = append(dst, v)
		b = b[n:]
	}
	return dst
}

// foldCPUProfile parses a gzipped profile.proto and attributes each sample
// to its leaf function.
func foldCPUProfile(gz []byte) (*cpuFold, error) {
	zr, err := gzip.NewReader(bytes.NewReader(gz))
	if err != nil {
		return nil, err
	}
	raw, err := io.ReadAll(zr)
	if err != nil {
		return nil, err
	}
	type sample struct {
		leaf  uint64
		value int64
	}
	var (
		samples   []sample
		locFunc   = map[uint64]uint64{} // location id -> leaf function id
		funcName  = map[uint64]uint64{} // function id -> string index
		stringTab []string
	)
	err = readFields(raw, func(f protoField) error {
		switch f.num {
		case 2: // Sample
			var locs, vals []uint64
			if err := readFields(f.data, func(sf protoField) error {
				switch sf.num {
				case 1:
					locs = repeatedVarints(sf, locs)
				case 2:
					vals = repeatedVarints(sf, vals)
				}
				return nil
			}); err != nil {
				return err
			}
			if len(locs) > 0 && len(vals) > 0 {
				// The last value is cpu/nanoseconds (samples/count first).
				samples = append(samples, sample{leaf: locs[0], value: int64(vals[len(vals)-1])})
			}
		case 4: // Location
			var id, fn uint64
			seenLine := false
			if err := readFields(f.data, func(lf protoField) error {
				switch lf.num {
				case 1:
					id = lf.val
				case 4: // Line; the first is the innermost (inlined) frame
					if seenLine {
						return nil
					}
					seenLine = true
					return readFields(lf.data, func(ln protoField) error {
						if ln.num == 1 {
							fn = ln.val
						}
						return nil
					})
				}
				return nil
			}); err != nil {
				return err
			}
			locFunc[id] = fn
		case 5: // Function
			var id, name uint64
			if err := readFields(f.data, func(ff protoField) error {
				switch ff.num {
				case 1:
					id = ff.val
				case 2:
					name = ff.val
				}
				return nil
			}); err != nil {
				return err
			}
			funcName[id] = name
		case 6: // string_table
			stringTab = append(stringTab, string(f.data))
		}
		return nil
	})
	if err != nil {
		return nil, err
	}
	fold := &cpuFold{byPkg: map[string]int64{}, byRTKind: map[string]int64{}}
	for _, s := range samples {
		name := ""
		if idx := funcName[locFunc[s.leaf]]; idx < uint64(len(stringTab)) {
			name = stringTab[idx]
		}
		fold.total += s.value
		fold.byPkg[layerOf(name)] += s.value
		if k := runtimeKind(name); k != "" {
			fold.byRTKind[k] += s.value
		}
	}
	return fold, nil
}

// layerOf maps a Go function name to the repo layer that owns it: the last
// path element of the package for repro/..., "bench" for this program, "rt"
// for the Go runtime and standard library.
func layerOf(fn string) string {
	// Receiver and type-argument text can hold slashes and dots of its own.
	if i := strings.IndexAny(fn, "(["); i >= 0 {
		fn = fn[:i]
	}
	pkg := fn
	slash := strings.LastIndexByte(fn, '/')
	if dot := strings.IndexByte(fn[slash+1:], '.'); dot >= 0 {
		pkg = fn[:slash+1+dot]
	}
	switch {
	case pkg == "main" || pkg == "repro/bench":
		return "bench"
	case pkg == "repro/internal/routing":
		return "mapper"
	case strings.HasPrefix(pkg, "repro/"):
		return pkg[strings.LastIndexByte(pkg, '/')+1:]
	default:
		return "rt"
	}
}

// runtimeKind classifies the runtime leaf functions the ROADMAP's profile
// lines name.
func runtimeKind(fn string) string {
	switch {
	case fn == "runtime.memmove":
		return "memmove"
	case strings.HasPrefix(fn, "runtime.memclr"):
		return "memclr"
	case strings.HasPrefix(fn, "hash/crc32."):
		return "crc32"
	case strings.HasPrefix(fn, "runtime.malloc"), strings.HasPrefix(fn, "runtime.(*mcache)"),
		strings.HasPrefix(fn, "runtime.(*mcentral)"), strings.HasPrefix(fn, "runtime.nextFreeFast"),
		strings.HasPrefix(fn, "runtime.newobject"), strings.HasPrefix(fn, "runtime.makeslice"),
		strings.HasPrefix(fn, "runtime.growslice"):
		return "malloc"
	case strings.HasPrefix(fn, "runtime.gc"), strings.HasPrefix(fn, "runtime.scan"),
		strings.HasPrefix(fn, "runtime.greyobject"), strings.HasPrefix(fn, "runtime.findObject"),
		strings.HasPrefix(fn, "runtime.(*gcWork)"), strings.HasPrefix(fn, "runtime.(*gcBits)"),
		strings.HasPrefix(fn, "runtime.markBits"), strings.HasPrefix(fn, "runtime.(*mspan).sweep"),
		strings.HasPrefix(fn, "runtime.(*sweepLocked)"), strings.HasPrefix(fn, "runtime.bgsweep"),
		strings.HasPrefix(fn, "runtime.wbBuf"), strings.HasPrefix(fn, "runtime.(*wbBuf)"),
		strings.HasPrefix(fn, "runtime.gcWriteBarrier"), strings.HasPrefix(fn, "runtime.bulkBarrier"),
		strings.HasPrefix(fn, "runtime.typePointers"), strings.HasPrefix(fn, "runtime.(*mspan).typePointers"),
		strings.HasPrefix(fn, "runtime.spanOf"), strings.HasPrefix(fn, "runtime.heapBits"):
		return "gc"
	}
	return ""
}
