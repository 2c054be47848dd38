package main

import (
	"bytes"
	"compress/gzip"
	"encoding/binary"
	"errors"
	"fmt"
	"io"
	"math"
	"runtime"
	"runtime/pprof"
	"strings"
)

// The traced run attributes host time and allocation to layers by the
// package of a sample's leaf frame: memsim/internal/<layer>, "runtime"
// for the Go runtime and its garbage collector, "bench" for this
// program and "other" for the rest of the standard library.

// layerOf maps a fully qualified function name to its layer.
func layerOf(fn string) string {
	if rest, ok := strings.CutPrefix(fn, "memsim/internal/"); ok {
		if i := strings.IndexAny(rest, "./"); i > 0 {
			return rest[:i]
		}
		return rest
	}
	for _, p := range []string{"runtime.", "runtime/", "internal/runtime/"} {
		if strings.HasPrefix(fn, p) {
			return "runtime"
		}
	}
	if strings.HasPrefix(fn, "main.") {
		return "bench"
	}
	return "other"
}

// allocLayer attributes an allocation to the first frame, from the
// allocation site outward, that is not in the runtime: runtime helpers
// such as growslice and makemap allocate on their caller's behalf.
func allocLayer(frames []string) string {
	for _, f := range frames {
		if l := layerOf(f); l != "runtime" {
			return l
		}
	}
	return "runtime"
}

// buckets holds a traced run's profile, by layer.
type buckets struct {
	cpu      map[string]int64   // CPU profile samples by leaf-frame layer
	cpuTotal int64              // all CPU samples
	alloc    map[string]float64 // estimated bytes allocated, by allocating layer
}

func (b buckets) cpuFrac(layer string) float64 {
	if b.cpuTotal == 0 {
		return 0
	}
	return float64(b.cpu[layer]) / float64(b.cpuTotal)
}

// profiler is a running CPU profile plus the allocation-profile
// baseline it started from.
type profiler struct {
	cpu    bytes.Buffer
	allocs map[[32]uintptr]allocRecord
}

func startProfiles() (*profiler, error) {
	p := &profiler{allocs: allocProfile()}
	if err := pprof.StartCPUProfile(&p.cpu); err != nil {
		return nil, fmt.Errorf("starting the CPU profile: %w", err)
	}
	return p, nil
}

// stop ends the CPU profile and buckets both profiles.
func (p *profiler) stop() (buckets, error) {
	pprof.StopCPUProfile()
	b := buckets{cpu: map[string]int64{}, alloc: map[string]float64{}}
	leaves, err := cpuLeaves(p.cpu.Bytes())
	if err != nil {
		return b, fmt.Errorf("reading the CPU profile: %w", err)
	}
	for fn, n := range leaves {
		b.cpu[layerOf(fn)] += n
		b.cpuTotal += n
	}
	for stk, r := range allocProfile() {
		r.bytes -= p.allocs[stk].bytes
		r.objects -= p.allocs[stk].objects
		if r.objects <= 0 {
			continue
		}
		b.alloc[allocLayer(symbolize(stk))] += r.estimate()
	}
	return b, nil
}

// allocRecord is one allocation site's sampled totals.
type allocRecord struct{ bytes, objects int64 }

// estimate scales the sampled bytes to the bytes allocated, the way
// pprof does: an object of size s is sampled with probability
// 1-exp(-s/MemProfileRate).
func (r allocRecord) estimate() float64 {
	rate := float64(runtime.MemProfileRate)
	if rate <= 0 {
		return float64(r.bytes)
	}
	avg := float64(r.bytes) / float64(r.objects)
	return float64(r.bytes) / (1 - math.Exp(-avg/rate))
}

// allocProfile returns the cumulative allocation profile by stack,
// current as of a forced garbage collection.
func allocProfile() map[[32]uintptr]allocRecord {
	runtime.GC()
	var recs []runtime.MemProfileRecord
	n, _ := runtime.MemProfile(nil, true)
	for {
		recs = make([]runtime.MemProfileRecord, n+64)
		var ok bool
		if n, ok = runtime.MemProfile(recs, true); ok {
			recs = recs[:n]
			break
		}
	}
	out := make(map[[32]uintptr]allocRecord, len(recs))
	for _, r := range recs {
		a := out[r.Stack0]
		a.bytes += r.AllocBytes
		a.objects += r.AllocObjects
		out[r.Stack0] = a
	}
	return out
}

// symbolize expands a stack, inlined calls included, to function names
// from the innermost frame outward.
func symbolize(stk [32]uintptr) []string {
	pcs := stk[:]
	for i, pc := range pcs {
		if pc == 0 {
			pcs = pcs[:i]
			break
		}
	}
	var names []string
	frames := runtime.CallersFrames(pcs)
	for {
		f, more := frames.Next()
		names = append(names, f.Function)
		if !more {
			return names
		}
	}
}

// cpuLeaves decodes a gzipped pprof CPU profile and returns its sample
// counts by leaf function. A location's first line is its innermost
// frame, so a function inlined into its caller is the leaf of the
// samples taken inside it.
func cpuLeaves(gz []byte) (map[string]int64, error) {
	zr, err := gzip.NewReader(bytes.NewReader(gz))
	if err != nil {
		return nil, err
	}
	raw, err := io.ReadAll(zr)
	if err != nil {
		return nil, err
	}
	type psample struct {
		locs   []uint64
		values []uint64
	}
	var (
		samples  []psample
		strs     []string
		locFunc  = map[uint64]uint64{} // location id -> innermost function id
		funcName = map[uint64]uint64{} // function id -> string index
	)
	err = fields(raw, func(num, wire int, v uint64, data []byte) error {
		var err error
		switch num {
		case 2: // Sample
			var s psample
			err = fields(data, func(num, wire int, v uint64, data []byte) error {
				var err error
				switch num {
				case 1:
					s.locs, err = uints(s.locs, wire, v, data)
				case 2:
					s.values, err = uints(s.values, wire, v, data)
				}
				return err
			})
			samples = append(samples, s)
		case 4: // Location
			var id, fn uint64
			lines := 0
			err = fields(data, func(num, wire int, v uint64, data []byte) error {
				switch num {
				case 1:
					id = v
				case 4: // Line
					lines++
					if lines > 1 {
						return nil
					}
					return fields(data, func(num, wire int, v uint64, data []byte) error {
						if num == 1 {
							fn = v
						}
						return nil
					})
				}
				return nil
			})
			if lines > 0 {
				locFunc[id] = fn
			}
		case 5: // Function
			var id, name uint64
			err = fields(data, func(num, wire int, v uint64, data []byte) error {
				switch num {
				case 1:
					id = v
				case 2:
					name = v
				}
				return nil
			})
			funcName[id] = name
		case 6: // string_table
			strs = append(strs, string(data))
		}
		return err
	})
	if err != nil {
		return nil, err
	}
	leaves := map[string]int64{}
	for _, s := range samples {
		if len(s.locs) == 0 || len(s.values) == 0 {
			continue
		}
		name := "unknown"
		if fn, ok := locFunc[s.locs[0]]; ok {
			if i := funcName[fn]; i < uint64(len(strs)) {
				name = strs[i]
			}
		}
		leaves[name] += int64(s.values[0])
	}
	return leaves, nil
}

var errProto = errors.New("malformed protobuf")

// fields calls fn for each field of one protobuf message: v carries a
// varint or fixed-width value, data a length-delimited payload.
func fields(b []byte, fn func(num, wire int, v uint64, data []byte) error) error {
	for len(b) > 0 {
		key, n := binary.Uvarint(b)
		if n <= 0 {
			return errProto
		}
		b = b[n:]
		var v uint64
		var data []byte
		switch wire := key & 7; wire {
		case 0:
			if v, n = binary.Uvarint(b); n <= 0 {
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
			if n <= 0 || l > uint64(len(b)-n) {
				return errProto
			}
			data, b = b[n:n+int(l)], b[n+int(l):]
		case 5:
			if len(b) < 4 {
				return errProto
			}
			v, b = uint64(binary.LittleEndian.Uint32(b)), b[4:]
		default:
			return errProto
		}
		if err := fn(int(key>>3), int(key&7), v, data); err != nil {
			return err
		}
	}
	return nil
}

// uints appends one occurrence of a repeated integer field, which the
// encoder may have packed.
func uints(dst []uint64, wire int, v uint64, data []byte) ([]uint64, error) {
	if wire != 2 {
		return append(dst, v), nil
	}
	for len(data) > 0 {
		x, n := binary.Uvarint(data)
		if n <= 0 {
			return nil, errProto
		}
		dst, data = append(dst, x), data[n:]
	}
	return dst, nil
}
