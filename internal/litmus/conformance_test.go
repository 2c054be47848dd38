package litmus

import (
	"fmt"
	"strings"
	"testing"

	"memsim/internal/consistency"
)

// TestConformance is the full sweep: every library test under every
// model, 150 perturbed seeds each — 1050 runs per litmus test. Every
// model must stay inside its engine-derived allowed set (for SC
// models, the interleaving set). Coverage (witnessed vs.
// allowed) is logged, not asserted: rare interleavings are allowed to
// stay unwitnessed at this run count.
func TestConformance(t *testing.T) {
	runs := 150
	if testing.Short() {
		runs = 25
	}
	for _, lt := range Library() {
		lt := lt
		t.Run(lt.Name, func(t *testing.T) {
			t.Parallel()
			for _, m := range consistency.Models {
				rep, err := Run(lt, m, Config{Runs: runs, Seed: 1})
				if err != nil {
					t.Fatalf("%s/%s: %v", lt.Name, m, err)
				}
				if !rep.OK() {
					t.Errorf("%s/%s: %d violations of %d runs; first: seed=%d config=%q outcome=%q",
						lt.Name, m, len(rep.Violations), runs,
						rep.Violations[0].Seed, rep.Violations[0].Config, rep.Violations[0].Outcome)
					continue
				}
				t.Logf("%s/%s: %d runs clean; witnessed %d/%d allowed outcomes",
					lt.Name, m, runs, len(rep.Witnessed), len(rep.Allowed))
			}
		})
	}
}

// TestRelaxedOutcomesWitnessed pins the harness's sensitivity: the
// perturbation driver must actually be able to produce the defining
// relaxed outcomes on the hardware whose contract permits them. If
// these stop being witnessed, the harness has gone blind and the
// conformance pass above means nothing.
func TestRelaxedOutcomesWitnessed(t *testing.T) {
	if testing.Short() {
		t.Skip("needs the full run count to witness rare interleavings")
	}
	cases := []struct {
		test    string
		model   consistency.Model
		outcome string
	}{
		{"sb", consistency.WO1, "P0:r4=0 P1:r4=0 | x=1 y=1"},
		{"sb", consistency.RC, "P0:r4=0 P1:r4=0 | x=1 y=1"},
		{"iriw", consistency.WO1, "P2:r4=1 P2:r5=0 P3:r4=1 P3:r5=0 | x=1 y=1"},
		// The zoo: each model must exhibit its defining reordering.
		{"sb", consistency.TSO, "P0:r4=0 P1:r4=0 | x=1 y=1"},
		{"sb", consistency.PSO, "P0:r4=0 P1:r4=0 | x=1 y=1"},
		{"sb", consistency.PC, "P0:r4=0 P1:r4=0 | x=1 y=1"},
		// PSO's defining store-store reordering: the reader observes
		// the flag yet still reads its stale cached data. The crowd
		// threads' registers vary freely, so this matches on the
		// distinguishing substring of the outcome key.
		{"mp+crowd", consistency.PSO, "P1:r4=0 P1:r5=1 P1:r6=0"},
		{"iriw", consistency.PC, "P2:r4=1 P2:r5=0 P3:r4=1 P3:r5=0 | x=1 y=1"},
	}
	for _, c := range cases {
		t.Run(fmt.Sprintf("%s-%s", c.test, c.model), func(t *testing.T) {
			lt, err := TestByName(c.test)
			if err != nil {
				t.Fatal(err)
			}
			rep, err := Run(lt, c.model, Config{Runs: 300, Seed: 1})
			if err != nil {
				t.Fatal(err)
			}
			if !rep.OK() {
				t.Fatalf("%s/%s: unexpected violations: %+v", c.test, c.model, rep.Violations)
			}
			hits := 0
			for key, n := range rep.Witnessed {
				if strings.Contains(key, c.outcome) {
					hits += n
				}
			}
			if hits == 0 {
				t.Errorf("%s/%s: relaxed outcome %q never witnessed in %d runs (harness lost its reordering sensitivity); witnessed: %v",
					c.test, c.model, c.outcome, rep.Runs, rep.WitnessedKeys())
			} else {
				t.Logf("%s/%s: %q witnessed %d/%d", c.test, c.model, c.outcome, hits, rep.Runs)
			}
		})
	}
}

// TestRunOneDeterministic pins reproducibility: a (test, model, seed)
// triple fully determines the outcome.
func TestRunOneDeterministic(t *testing.T) {
	lt, err := TestByName("sb")
	if err != nil {
		t.Fatal(err)
	}
	for seed := int64(1); seed <= 20; seed++ {
		a, err := RunOne(nil, lt, consistency.WO1, seed, consistency.MutNone)
		if err != nil {
			t.Fatal(err)
		}
		b, err := RunOne(nil, lt, consistency.WO1, seed, consistency.MutNone)
		if err != nil {
			t.Fatal(err)
		}
		if a != b {
			t.Fatalf("seed %d: outcomes differ across identical runs: %q vs %q", seed, a, b)
		}
	}
}
