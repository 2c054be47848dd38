package litmus

import (
	"encoding/json"
	"os"
	"slices"
	"testing"

	"memsim/internal/consistency"
)

// allows reports whether key is in lt's allowed set under model m.
func allows(t *testing.T, lt *Test, m consistency.Model, key string) bool {
	t.Helper()
	keys, err := lt.Allowed(consistency.SpecFor(m))
	if err != nil {
		t.Fatalf("%s/%s: %v", lt.Name, m, err)
	}
	return slices.Contains(keys, key)
}

// TestAllowedMatchesGolden pins the engine to testdata/allowed.json:
// the allowed sets of every library test under every model, frozen
// from the hand-written per-model whitelists (SC oracle plus gated
// relaxed outcomes) the engine replaced. The file is never
// regenerated; a mismatch means the engine changed what a model
// allows.
func TestAllowedMatchesGolden(t *testing.T) {
	data, err := os.ReadFile("testdata/allowed.json")
	if err != nil {
		t.Fatal(err)
	}
	var golden map[string]map[string][]string
	if err := json.Unmarshal(data, &golden); err != nil {
		t.Fatal(err)
	}
	lib := Library()
	if len(golden) != len(lib) {
		t.Fatalf("golden file covers %d tests, library has %d", len(golden), len(lib))
	}
	total := 0
	for _, lt := range lib {
		want, ok := golden[lt.Name]
		if !ok || len(want) != len(consistency.Models) {
			t.Fatalf("%s: golden file has %d of %d models", lt.Name, len(want), len(consistency.Models))
		}
		for _, m := range consistency.Models {
			got, err := lt.Allowed(consistency.SpecFor(m))
			if err != nil {
				t.Fatalf("%s/%s: %v", lt.Name, m, err)
			}
			if !slices.Equal(got, want[m.String()]) {
				t.Errorf("%s/%s: allowed set differs from golden\n got:  %v\n want: %v",
					lt.Name, m, got, want[m.String()])
			}
			total += len(got)
		}
	}
	if total != 1506 {
		t.Errorf("%d allowed keys in total, golden has 1506", total)
	}
}

// TestEngineForwardingShape pins the read-own-write-early semantics
// with the 5-op n6-style program:
//
//	P0: st x=1; ld x; ld y  ||  P1: st y=2; stRel x=2
//
// Outcome P0 reads x=1, y=0 with final memory x=1 y=2: on the write-
// buffer models P0's load of x forwards from its own buffered store
// (which performs last, after P1's x=2) while ld y still runs before
// P1 starts. On models that keep loads ordered (SC, bSC1, bWO1) the
// chain st x=1 < ld x < ld y < st y=2 < stRel x=2 < st x=1 is cyclic,
// so they forbid it. WO1 and RC, however, relax load-load order, so
// they reach the same outcome withOUT forwarding (run ld y first,
// then P1, then st x=1, then ld x reads memory): forwarding is only
// observable against models with blocking loads — which is exactly
// why this shape is the minimal PSO-versus-bWO1 witness.
func TestEngineForwardingShape(t *testing.T) {
	prog := []Thread{
		{st(0, 1), ld(0), ld(1)},
		{st(1, 2), stRel(0, 2)},
	}
	tt, _ := SynthTest(prog)
	const outcome = "P0:r4=1 P0:r5=0 | x=1 y=2"
	for _, m := range []consistency.Model{consistency.TSO, consistency.PSO, consistency.PC} {
		if !allows(t, tt, m, outcome) {
			t.Errorf("%s: forwarding outcome %q not allowed; write-buffer forwarding lost", m, outcome)
		}
	}
	for _, m := range []consistency.Model{consistency.SC1, consistency.BSC1, consistency.BWO1} {
		if allows(t, tt, m, outcome) {
			t.Errorf("%s: forwarding outcome %q allowed without a write buffer", m, outcome)
		}
	}
	// WO1/RC mimic the outcome through load-load reordering instead of
	// forwarding, so they must allow it too (see doc comment).
	for _, m := range []consistency.Model{consistency.WO1, consistency.RC} {
		if !allows(t, tt, m, outcome) {
			t.Errorf("%s: outcome %q should be reachable via RR reordering", m, outcome)
		}
	}
}

// TestValidateProgram: every malformed shape a program file can carry
// is rejected with an error, and a well-formed program passes.
func TestValidateProgram(t *testing.T) {
	ok := []Thread{{st(0, 1), fence(), ld(3)}, {ldAcq(1), stRel(2, 1)}}
	if err := ValidateProgram(ok); err != nil {
		t.Fatalf("well-formed program rejected: %v", err)
	}
	malformed := map[string]Op{
		"loc 4":  {Kind: OpLoad, Loc: 4},
		"loc -1": {Kind: OpStore, Loc: -1, Val: 1},
		"kind 7": {Kind: 7},
		"ann 9":  {Kind: OpLoad, Ann: 9},
	}
	for name, op := range malformed {
		t.Run(name, func(t *testing.T) {
			prog := []Thread{{st(0, 1), op}}
			if err := ValidateProgram(prog); err == nil {
				t.Errorf("program %+v accepted", prog)
			}
		})
	}
	if err := ValidateProgram(nil); err == nil {
		t.Error("empty program accepted")
	}
}
