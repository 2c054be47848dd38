package litmus

import "encoding/binary"

// The sequential-consistency oracle. A litmus test's abstract ops are
// small enough (a handful per thread, at most four threads) that the
// set of SC-reachable outcomes can be computed exactly by enumerating
// every interleaving of the threads' program-ordered operations
// against a single shared memory: that is the definition of
// sequential consistency, operationally. Fences and annotations are
// invisible to the oracle — under SC every access is already strongly
// ordered.

// OracleKeys returns the SC oracle's outcome set as sorted keys: the
// independent check on the engine's SC instance.
func (t *Test) OracleKeys() ([]string, error) {
	refs, err := t.Refs()
	if err != nil {
		return nil, err
	}
	return t.sortedKeys(refs, t.scOutcomes()), nil
}

// scOutcomes enumerates the SC outcome set. Custom tests supply it
// explicitly (SCSet); declarative tests are enumerated by depth-first
// search over which thread performs its next operation. The outcomes
// reachable from a search state depend only on the state itself (each
// thread's next operation, memory, and the loads observed so far), so
// a state the search has already expanded is skipped; every leaf is
// then reached once, and every outcome is distinct.
func (t *Test) scOutcomes() []Outcome {
	if t.Threads == nil {
		return t.SCSet
	}

	loadIdx, nLoads := t.loadSlots()
	pcs := make([]int, len(t.Threads))
	mem := make([]uint64, t.NLocs)
	obs := make([]uint64, nLoads)
	visited := make(map[string]bool)
	var state []byte
	var outcomes []Outcome

	var rec func()
	rec = func() {
		// Uvarints are prefix-free, so the fixed-length concatenation
		// identifies the state exactly.
		state = state[:0]
		for _, pc := range pcs {
			state = binary.AppendUvarint(state, uint64(pc))
		}
		for _, v := range mem {
			state = binary.AppendUvarint(state, v)
		}
		for _, v := range obs {
			state = binary.AppendUvarint(state, v)
		}
		if visited[string(state)] {
			return
		}
		visited[string(state)] = true

		done := true
		for ti, th := range t.Threads {
			if pcs[ti] >= len(th) {
				continue
			}
			done = false
			op := th[pcs[ti]]
			oi := pcs[ti]
			pcs[ti]++
			switch op.Kind {
			case OpStore:
				old := mem[op.Loc]
				mem[op.Loc] = op.Val
				rec()
				mem[op.Loc] = old
			case OpLoad:
				idx := loadIdx[ti][oi]
				old := obs[idx]
				obs[idx] = mem[op.Loc]
				rec()
				obs[idx] = old
			case OpFence:
				rec()
			}
			pcs[ti]--
		}
		if done {
			outcomes = append(outcomes, Outcome{
				Loads: append([]uint64(nil), obs...),
				Mem:   append([]uint64(nil), mem...),
			})
		}
	}
	rec()
	return outcomes
}
