package main

import (
	"bytes"
	"compress/gzip"
	"encoding/binary"
	"runtime/pprof"
	"testing"
	"time"
)

func TestLayerOf(t *testing.T) {
	for fn, want := range map[string]string{
		"memsim/internal/sim.(*Engine).RunLimit":           "sim",
		"memsim/internal/sim.(*calQueue).push":             "sim",
		"memsim/internal/cpu.(*CPU).step":                  "cpu",
		"memsim/internal/cache.(*Cache).Access":            "cache",
		"memsim/internal/memory.(*Module).handle":          "memory",
		"memsim/internal/network.(*Network).newPort.func1": "network",
		"memsim/internal/machine.New":                      "machine",
		"memsim/internal/metrics.(*Collector).Stall":       "metrics",
		"memsim/internal/server/chaostest.Run":             "server",
		"memsim/internal/sim.pop[go.shape.int]":            "sim",
		"runtime.mallocgc":                                 "runtime",
		"runtime.gcBgMarkWorker":                           "runtime",
		"runtime.scanobject":                               "runtime",
		"runtime/internal/atomic.(*Uint32).Load":           "runtime",
		"internal/runtime/maps.(*Map).getWithKeySmall":     "runtime",
		"main.psim64SC1":                                   "bench",
		"main.(*gate).check":                               "bench",
		"encoding/gob.(*Encoder).encode":                   "other",
		"crypto/sha256.block":                              "other",
		"memsim.NewMachine":                                "other",
		"memsim/internal/machinery.X":                      "machinery",
		"":                                                 "other",
	} {
		if got := layerOf(fn); got != want {
			t.Errorf("layerOf(%q) = %q, want %q", fn, got, want)
		}
	}
}

func TestAllocLayerSkipsRuntimeFrames(t *testing.T) {
	for _, c := range []struct {
		frames []string
		want   string
	}{
		{[]string{"runtime.growslice", "memsim/internal/memory.(*Module).enqueue", "memsim/internal/sim.(*Engine).Step"}, "memory"},
		{[]string{"runtime.makemap", "runtime.mapassign", "encoding/gob.(*Encoder).Encode", "memsim/internal/machine.WriteSnapshotFile"}, "other"},
		{[]string{"memsim/internal/cache.(*Cache).fill", "memsim/internal/cpu.(*CPU).step"}, "cache"},
		{[]string{"runtime.malg", "runtime.newproc1"}, "runtime"},
		{nil, "runtime"},
	} {
		if got := allocLayer(c.frames); got != c.want {
			t.Errorf("allocLayer(%q) = %q, want %q", c.frames, got, c.want)
		}
	}
}

// pb is a minimal protobuf encoder for building test profiles.
type pb []byte

func (p pb) varint(field int, v uint64) pb {
	p = binary.AppendUvarint(p, uint64(field)<<3)
	return binary.AppendUvarint(p, v)
}

func (p pb) bytes(field int, data []byte) pb {
	p = binary.AppendUvarint(p, uint64(field)<<3|2)
	p = binary.AppendUvarint(p, uint64(len(data)))
	return append(p, data...)
}

func (p pb) packed(field int, vs ...uint64) pb {
	var data []byte
	for _, v := range vs {
		data = binary.AppendUvarint(data, v)
	}
	return p.bytes(field, data)
}

// TestCPULeavesInlinedFrames decodes a hand-built profile whose first
// location holds an inlined call: cache.lookup inlined into cpu.step.
// Samples in that location belong to the inlined callee.
func TestCPULeavesInlinedFrames(t *testing.T) {
	strs := []string{"", "samples", "count", "memsim/internal/cache.(*Cache).lookup",
		"memsim/internal/cpu.(*CPU).step", "runtime.mallocgc"}
	var prof pb
	// Sample 1 (packed): leaf location 1, then 2; 3 samples.
	prof = prof.bytes(2, pb(nil).packed(1, 1, 2, 2).packed(2, 3, 30))
	// Sample 2 (unpacked): leaf location 2; 2 samples.
	prof = prof.bytes(2, pb(nil).varint(1, 2).varint(2, 2).varint(2, 20))
	// Sample 3: leaf location 3 (the runtime), called from 2; 5 samples.
	prof = prof.bytes(2, pb(nil).packed(1, 3, 2, 2).packed(2, 5, 50))
	line := func(fn uint64) []byte { return pb(nil).varint(1, fn).varint(2, 10) }
	prof = prof.bytes(4, pb(nil).varint(1, 1).varint(3, 0x1000).bytes(4, line(1)).bytes(4, line(2)))
	prof = prof.bytes(4, pb(nil).varint(1, 2).bytes(4, line(2)))
	prof = prof.bytes(4, pb(nil).varint(1, 3).bytes(4, line(3)))
	for id, name := range []uint64{3, 4, 5} {
		prof = prof.bytes(5, pb(nil).varint(1, uint64(id+1)).varint(2, name))
	}
	for _, s := range strs {
		prof = prof.bytes(6, []byte(s))
	}
	var gz bytes.Buffer
	zw := gzip.NewWriter(&gz)
	zw.Write(prof)
	zw.Close()

	leaves, err := cpuLeaves(gz.Bytes())
	if err != nil {
		t.Fatal(err)
	}
	want := map[string]int64{strs[3]: 3, strs[4]: 2, strs[5]: 5}
	if len(leaves) != len(want) {
		t.Fatalf("leaves = %v, want %v", leaves, want)
	}
	for fn, n := range want {
		if leaves[fn] != n {
			t.Errorf("leaves[%q] = %d, want %d", fn, leaves[fn], n)
		}
	}
}

func TestCPULeavesRejectsTruncatedProfile(t *testing.T) {
	var gz bytes.Buffer
	zw := gzip.NewWriter(&gz)
	zw.Write(pb(nil).bytes(2, []byte{0x0a, 0x05, 0x01}))
	zw.Close()
	if _, err := cpuLeaves(gz.Bytes()); err == nil {
		t.Fatal("truncated profile decoded without error")
	}
}

var spinSink uint64

// TestCPULeavesRealProfile decodes a profile written by runtime/pprof.
func TestCPULeavesRealProfile(t *testing.T) {
	var buf bytes.Buffer
	if err := pprof.StartCPUProfile(&buf); err != nil {
		t.Skip("CPU profiling unavailable:", err)
	}
	for end := time.Now().Add(300 * time.Millisecond); time.Now().Before(end); {
		for i := 0; i < 1e5; i++ {
			spinSink = spinSink*6364136223846793005 + 1
		}
	}
	pprof.StopCPUProfile()
	leaves, err := cpuLeaves(buf.Bytes())
	if err != nil {
		t.Fatal(err)
	}
	var total int64
	for _, n := range leaves {
		total += n
	}
	if total == 0 {
		t.Fatal("no samples decoded from a 300 ms busy loop")
	}
}
