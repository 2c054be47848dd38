package compare

import (
	"encoding/json"
	"os"
	"path/filepath"
	"reflect"
	"testing"

	"memsim/internal/consistency"
	"memsim/internal/litmus"
)

// TestCompareLattice runs the full default-budget search over all ten
// models and pins the zoo's strictness lattice: the behavioral
// classes, the known strict orders, and the known incomparabilities.
func TestCompareLattice(t *testing.T) {
	res, err := Compare(consistency.Models, DefaultBudget())
	if err != nil {
		t.Fatal(err)
	}
	if !res.Exhausted {
		t.Fatal("search stopped before exhausting the budget")
	}

	wantClasses := map[string][]string{
		"SC1":  {"SC1", "SC2", "bSC1"},
		"WO1":  {"WO1", "WO2"},
		"RC":   {"RC"},
		"bWO1": {"bWO1"},
		"TSO":  {"TSO"},
		"PSO":  {"PSO"},
		"PC":   {"PC"},
	}
	if len(res.Classes) != len(wantClasses) {
		t.Fatalf("got %d classes, want %d: %+v", len(res.Classes), len(wantClasses), res.Classes)
	}
	for _, c := range res.Classes {
		if !reflect.DeepEqual(c.Models, wantClasses[c.Name]) {
			t.Errorf("class %s: members %v, want %v", c.Name, c.Models, wantClasses[c.Name])
		}
	}

	wantRel := map[[2]string]string{
		{"SC1", "TSO"}:  "stronger", // sb separates
		{"SC1", "bWO1"}: "stronger",
		{"TSO", "PSO"}:  "stronger", // mp separates
		{"TSO", "PC"}:   "stronger",
		{"TSO", "WO1"}:  "stronger",
		{"bWO1", "PSO"}: "stronger", // only forwarding separates
		{"bWO1", "WO1"}: "stronger",
		// Forwarding executions reposition into load-load reordering,
		// so the fully relaxed models subsume the write-buffer ones.
		{"PSO", "WO1"}:  "stronger",
		{"PC", "WO1"}:   "stronger",
		{"PSO", "RC"}:   "stronger",
		{"PC", "RC"}:    "stronger",
		{"WO1", "RC"}:   "stronger", // one-sided release separates
		{"TSO", "bWO1"}: "incomparable",
		{"PSO", "PC"}:   "incomparable",
		{"bWO1", "PC"}:  "incomparable",
	}
	for pair, want := range wantRel {
		if got := res.Relation(pair[0], pair[1]); got != want {
			t.Errorf("Relation(%s, %s) = %s, want %s", pair[0], pair[1], got, want)
		}
	}

	wantHasse := [][2]string{
		{"PC", "WO1"}, {"PSO", "WO1"}, {"SC1", "TSO"}, {"SC1", "bWO1"},
		{"TSO", "PC"}, {"TSO", "PSO"}, {"WO1", "RC"}, {"bWO1", "PSO"},
	}
	if got := res.HasseEdges(); !reflect.DeepEqual(got, wantHasse) {
		t.Errorf("Hasse edges = %v, want %v", got, wantHasse)
	}

	// SC is the unique bottom: strictly stronger than every other
	// class, with nothing it allows that others forbid.
	for _, c := range res.Classes {
		if c.Name == "SC1" {
			continue
		}
		if got := res.Relation("SC1", c.Name); got != "stronger" {
			t.Errorf("Relation(SC1, %s) = %s, want stronger", c.Name, got)
		}
	}

	// Minimal witnesses for the textbook separations.
	for _, c := range []struct {
		weak, strong string
		maxOps       int
	}{
		{"TSO", "SC1", 4},  // store buffering
		{"PSO", "TSO", 4},  // message passing or 2+2W
		{"PC", "TSO", 4},   // message passing via load reordering
		{"PSO", "bWO1", 5}, // forwarding shape needs 5 ops
		{"RC", "WO1", 5},   // one-sided release shape
	} {
		p := res.Pair(c.weak, c.strong)
		if p == nil || !p.Separated {
			t.Errorf("pair (%s, %s): expected separation, got none", c.weak, c.strong)
			continue
		}
		if p.Witness.Ops > c.maxOps {
			t.Errorf("pair (%s, %s): minimal witness has %d ops, want <= %d: %s",
				c.weak, c.strong, p.Witness.Ops, c.maxOps, litmus.FormatProgram(p.Witness.Threads))
		}
		t.Logf("%s \\ %s: %s :: %s", c.weak, c.strong,
			litmus.FormatProgram(p.Witness.Threads), p.Witness.Outcome)
	}
}

// TestCompareDeterministic: two independent searches produce
// identical results, byte for byte.
func TestCompareDeterministic(t *testing.T) {
	a, err := Compare(consistency.Models, DefaultBudget())
	if err != nil {
		t.Fatal(err)
	}
	b, err := Compare(consistency.Models, DefaultBudget())
	if err != nil {
		t.Fatal(err)
	}
	if !reflect.DeepEqual(a, b) {
		t.Fatal("two identical searches produced different results")
	}
}

// TestVerifyOnHardware replays the SC/TSO witness on the simulated
// machines: store buffering must show up on TSO hardware and never on
// SC1, and both sides must stay inside their engine-allowed sets.
// Run counts are kept CI-sized; cmd/compare defaults to 1000.
func TestVerifyOnHardware(t *testing.T) {
	runs := 120
	if testing.Short() {
		runs = 40
	}
	res, err := Compare([]consistency.Model{consistency.SC1, consistency.TSO}, DefaultBudget())
	if err != nil {
		t.Fatal(err)
	}
	if err := res.Verify(nil, VerifyConfig{Runs: runs, Seed: 1}); err != nil {
		t.Fatal(err)
	}
	p := res.Pair("TSO", "SC1")
	if p == nil || !p.Separated {
		t.Fatal("TSO/SC1 not separated")
	}
	v := p.Witness.Verification
	if v == nil {
		t.Fatal("no verification record")
	}
	if v.WeakHits == 0 {
		t.Errorf("store-buffering outcome never witnessed on TSO hardware in %d runs", runs)
	}
	if v.StrongViolations != 0 {
		t.Errorf("witness outcome appeared %d times on SC1 hardware", v.StrongViolations)
	}
	if !v.WeakConformant || !v.StrongConformant {
		t.Errorf("hardware escaped the engine's allowed set (weak=%t strong=%t): engine unsound",
			v.WeakConformant, v.StrongConformant)
	}
	if !v.Verified {
		t.Errorf("witness not verified: %+v", v)
	}
	t.Logf("TSO \\ SC1 verified: %s :: %s (first hit seed %d, %d/%d hits)",
		litmus.FormatProgram(p.Witness.Threads), p.Witness.Outcome, v.WeakHitSeed, v.WeakHits, v.Runs)

	// Reverse direction must not exist: SC allows nothing TSO forbids.
	if q := res.Pair("SC1", "TSO"); q != nil && q.Separated {
		t.Errorf("SC1 \\ TSO separation claimed: %s", litmus.FormatProgram(q.Witness.Threads))
	}
}

// TestWitnessRoundTrip: witness files survive a write/load/replay
// cycle.
func TestWitnessRoundTrip(t *testing.T) {
	res, err := Compare([]consistency.Model{consistency.SC1, consistency.TSO}, DefaultBudget())
	if err != nil {
		t.Fatal(err)
	}
	dir := t.TempDir()
	n, err := res.WriteWitnesses(dir)
	if err != nil {
		t.Fatal(err)
	}
	if n != 1 {
		t.Fatalf("wrote %d witness files, want 1", n)
	}
	w, err := LoadWitness(dir + "/TSO-not-SC1.json")
	if err != nil {
		t.Fatal(err)
	}
	v, err := Replay(nil, w, VerifyConfig{Runs: 60, Seed: 7})
	if err != nil {
		t.Fatal(err)
	}
	if v.StrongViolations != 0 {
		t.Errorf("replayed witness outcome appeared on the strong model %d times", v.StrongViolations)
	}
}

// TestEnumerateCanonical spot-checks the enumerator: programs are
// unique, canonical, and within budget.
func TestEnumerateCanonical(t *testing.T) {
	b := Budget{MaxOps: 4, MaxThreads: 2, MaxLocs: 2, Fences: true, Annotations: true}
	seen := make(map[string]bool)
	count := 0
	b.Enumerate(func(prog []litmus.Thread) bool {
		count++
		key := litmus.FormatProgram(prog)
		if seen[key] {
			t.Fatalf("duplicate program: %s", key)
		}
		seen[key] = true
		ops := 0
		for _, th := range prog {
			ops += len(th)
		}
		if ops < 2 || ops > 4 || len(prog) != 2 {
			t.Fatalf("out-of-budget program: %s", key)
		}
		return true
	})
	if count == 0 {
		t.Fatal("enumerator produced nothing")
	}
	t.Logf("%d canonical programs at ops<=4", count)
}

// TestLoadWitnessRejectsMalformed: a witness file whose program holds
// a location outside x..w, or an operation kind or annotation outside
// its enum, is rejected by LoadWitness with an error, before anything
// formats or replays it.
func TestLoadWitnessRejectsMalformed(t *testing.T) {
	for name, bad := range map[string]litmus.Op{
		"loc 4":  {Kind: litmus.OpLoad, Loc: 4},
		"loc -1": {Kind: litmus.OpStore, Loc: -1, Val: 1},
		"kind 7": {Kind: 7},
		"ann 9":  {Kind: litmus.OpLoad, Ann: 9},
	} {
		t.Run(name, func(t *testing.T) {
			w := Witness{Weak: "TSO", Strong: "SC1", Threads: []litmus.Thread{
				{{Kind: litmus.OpStore, Val: 1}, bad},
				{{Kind: litmus.OpLoad}},
			}}
			data, err := json.Marshal(w)
			if err != nil {
				t.Fatal(err)
			}
			path := filepath.Join(t.TempDir(), "w.json")
			if err := os.WriteFile(path, data, 0o644); err != nil {
				t.Fatal(err)
			}
			if _, err := LoadWitness(path); err == nil {
				t.Errorf("witness with %s loaded without error", name)
			}
		})
	}
}
