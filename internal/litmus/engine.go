package litmus

// The allowed-outcome engine. It interprets a declarative test under
// a consistency.Spec's hardware dials, enumerating every
// linearization of the test's operations that respects the spec's
// preserved program order (the Adve/Gharachorloo relaxation axes,
// derived by Spec.Relaxations) and executing each against a single
// shared memory. Write-buffer specs additionally model store-to-load
// forwarding: a load may execute while a program-earlier same-location
// store is still unexecuted, reading the buffered value
// (read-own-write-early), which is observationally distinct from
// merely relaxing the W→R edge (the classic n6 shape: the forwarded
// value can be the final memory value even though the store performs
// last).
//
// The engine is the only derivation of allowed sets. Its SC
// instance is cross-checked against the independent interleaving
// oracle (oracle.go), and testdata/allowed.json pins its output on
// the whole library under every model.

import (
	"fmt"
	"slices"
	"strings"

	"memsim/internal/consistency"
)

// maxEngineOps bounds the packed DFS state (executed bits + memory +
// observations must fit one uint64).
const maxEngineOps = 12

// annMode classifies how a spec's hardware sees synchronization
// annotations: invisible (SC systems treat everything as plain),
// two-sided (weak ordering maps acquire/release to full sync), or
// one-sided (release consistency keeps them directional).
type annMode int

const (
	annInvisible annMode = iota
	annTwoSided
	annOneSided
)

func annModeOf(s consistency.Spec) annMode {
	switch {
	case !s.SyncVisible:
		return annInvisible
	case s.ReleaseNonBlocking:
		return annOneSided
	default:
		return annTwoSided
	}
}

// effAnn mirrors cpu.effectiveClass: the annotation the hardware
// actually honors.
func effAnn(mode annMode, a Ann) Ann {
	switch mode {
	case annInvisible:
		return AnnPlain
	case annTwoSided:
		if a == AnnAcquire || a == AnnRelease {
			return AnnSync
		}
	}
	return a
}

// ordered reports whether program-order edge a→b (same thread, a
// earlier) is preserved by the spec: b may not execute while a is
// still pending unless this returns false.
func ordered(s consistency.Spec, mode annMode, r consistency.Relaxation, a, b Op) bool {
	if s.SequentiallyConsistent() {
		return true
	}
	ea, eb := effAnn(mode, a.Ann), effAnn(mode, b.Ann)
	if ea == AnnSync || eb == AnnSync {
		return true // fences and sync-classed ops order both directions
	}
	if a.Kind != OpFence && b.Kind != OpFence && a.Loc == b.Loc {
		// Same location: always ordered, except that a write buffer
		// lets a load run ahead of its own thread's pending store —
		// the load forwards the buffered value (read-own-write-early).
		if s.WriteBuffer && a.Kind == OpStore && b.Kind == OpLoad {
			return false
		}
		return true
	}
	if a.Kind == OpLoad && ea == AnnAcquire {
		return true // an acquire orders everything after it
	}
	if b.Kind == OpStore && eb == AnnRelease {
		return true // a release orders everything before it
	}
	switch {
	case a.Kind == OpStore && b.Kind == OpLoad:
		return !r.WR
	case a.Kind == OpStore && b.Kind == OpStore:
		return !r.WW
	case a.Kind == OpLoad && b.Kind == OpLoad:
		return !r.RR
	default:
		return !r.RW
	}
}

// Signature fingerprints the spec dials the engine reads. Two specs
// with equal signatures allow identical outcome sets on every
// program.
func Signature(s consistency.Spec) string {
	if s.SequentiallyConsistent() {
		return "SC"
	}
	r := s.Relaxations()
	flag := func(b bool, name string) string {
		if b {
			return name
		}
		return ""
	}
	ann := map[annMode]string{annInvisible: "", annTwoSided: "sync", annOneSided: "rel/acq"}[annModeOf(s)]
	parts := []string{flag(r.WR, "WR"), flag(r.WW, "WW"), flag(r.RR, "RR"), flag(r.RW, "RW"),
		flag(s.WriteBuffer, "fwd"), ann}
	out := parts[:0]
	for _, p := range parts {
		if p != "" {
			out = append(out, p)
		}
	}
	return strings.Join(out, "+")
}

// Allowed computes the test's allowed outcome set under a hardware
// spec, as sorted outcome keys. A declarative test's set comes from
// the engine; a custom test's is its explicit SC set under every
// model.
func (t *Test) Allowed(spec consistency.Spec) ([]string, error) {
	refs, err := t.Refs()
	if err != nil {
		return nil, err
	}
	outs := t.SCSet
	if t.Threads != nil {
		if outs, err = t.engineOutcomes(spec); err != nil {
			return nil, err
		}
	}
	return t.sortedKeys(refs, outs), nil
}

// sortedKeys renders outcomes as a sorted, duplicate-free key list.
func (t *Test) sortedKeys(refs []LoadRef, outs []Outcome) []string {
	keys := make([]string, len(outs))
	for i, o := range outs {
		keys[i] = t.Key(refs, o)
	}
	slices.Sort(keys)
	return slices.Compact(keys)
}

// engineOutcomes enumerates the outcomes a declarative test can reach
// under a spec.
func (t *Test) engineOutcomes(spec consistency.Spec) ([]Outcome, error) {
	totalOps, maxVal := 0, uint64(0)
	for _, th := range t.Threads {
		totalOps += len(th)
		for _, op := range th {
			if op.Kind == OpStore && op.Val > maxVal {
				maxVal = op.Val
			}
		}
	}
	if totalOps > maxEngineOps {
		return nil, fmt.Errorf("litmus: %s has %d ops, engine limit is %d", t.Name, totalOps, maxEngineOps)
	}

	mode := annModeOf(spec)
	relax := spec.Relaxations()
	loadIdx, nLoads := t.loadSlots()
	vbits := 1
	for (uint64(1) << vbits) <= maxVal {
		vbits++
	}
	if totalOps+(t.NLocs+nLoads)*vbits > 64 {
		return nil, fmt.Errorf("litmus: %s state (%d ops, %d locs, %d loads, %d value bits) exceeds packed-state capacity",
			t.Name, totalOps, t.NLocs, nLoads, vbits)
	}

	execd := make([]uint32, len(t.Threads))
	mem := make([]uint64, t.NLocs)
	obs := make([]uint64, nLoads)
	visited := make(map[uint64]bool)
	var outcomes []Outcome

	pack := func() uint64 {
		var k uint64
		shift := 0
		for ti := range t.Threads {
			k |= uint64(execd[ti]) << shift
			shift += len(t.Threads[ti])
		}
		for _, v := range mem {
			k |= v << shift
			shift += vbits
		}
		for _, v := range obs {
			k |= v << shift
			shift += vbits
		}
		return k
	}

	var rec func()
	rec = func() {
		k := pack()
		if visited[k] {
			return
		}
		visited[k] = true
		anyReady := false
		for ti, th := range t.Threads {
			for oi, op := range th {
				if execd[ti]&(1<<oi) != 0 {
					continue
				}
				ready := true
				for pj := 0; pj < oi; pj++ {
					if execd[ti]&(1<<pj) == 0 && ordered(spec, mode, relax, th[pj], op) {
						ready = false
						break
					}
				}
				if !ready {
					continue
				}
				anyReady = true
				execd[ti] |= 1 << oi
				switch op.Kind {
				case OpFence:
					rec()
				case OpStore:
					old := mem[op.Loc]
					mem[op.Loc] = op.Val
					rec()
					mem[op.Loc] = old
				case OpLoad:
					v := mem[op.Loc]
					if spec.WriteBuffer {
						// Forward from the newest program-earlier
						// same-location store still in the buffer.
						// Same-location stores stay ordered, so if the
						// newest one has executed, all earlier ones have.
						for pj := oi - 1; pj >= 0; pj-- {
							if th[pj].Kind == OpStore && th[pj].Loc == op.Loc {
								if execd[ti]&(1<<pj) == 0 {
									v = th[pj].Val
								}
								break
							}
						}
					}
					idx := loadIdx[ti][oi]
					old := obs[idx]
					obs[idx] = v
					rec()
					obs[idx] = old
				}
				execd[ti] &^= 1 << oi
			}
		}
		if anyReady {
			return
		}
		outcomes = append(outcomes, Outcome{
			Loads: append([]uint64(nil), obs...),
			Mem:   append([]uint64(nil), mem...),
		})
	}
	rec()
	return outcomes, nil
}
