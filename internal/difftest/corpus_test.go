package difftest

import (
	"context"
	"path/filepath"
	"testing"

	"memsim/internal/consistency"
	"memsim/internal/litmus"
)

// The committed corpus under testdata/corpus holds shrunk, replayable
// reproducers difftest found against the seeded defect models
// (sc-overlap, wb-no-drain). It is the regression net for the
// perturbation driver, the replay path, and the mutations themselves:
// each bundle must keep replaying to its recorded forbidden outcome,
// and the same minimized programs must run clean on the real
// (unmutated) models.

func corpusBundles(t *testing.T) []*Bundle {
	t.Helper()
	paths, err := filepath.Glob(filepath.Join("testdata", "corpus", "*.json"))
	if err != nil {
		t.Fatal(err)
	}
	if len(paths) == 0 {
		t.Fatal("no corpus bundles under testdata/corpus")
	}
	var bundles []*Bundle
	for _, path := range paths {
		b, err := LoadBundle(path)
		if err != nil {
			t.Fatal(err)
		}
		if b.Version != BundleVersion {
			t.Fatalf("%s: bundle version %d, tool speaks %d", path, b.Version, BundleVersion)
		}
		if b.Mutate == "" {
			t.Fatalf("%s: corpus bundle has no seeded mutation (a real-model violation does not belong in the regression corpus)", path)
		}
		bundles = append(bundles, b)
	}
	return bundles
}

// TestCorpusStillReproduces: every committed bundle replays to its
// recorded verdict — the mutated hardware still produces the recorded
// forbidden outcome bit-exactly, and that outcome is still outside the
// current model contract.
func TestCorpusStillReproduces(t *testing.T) {
	for _, b := range corpusBundles(t) {
		res, err := ReplayBundle(context.Background(), b)
		if err != nil {
			t.Fatalf("%s: %v", b.Name(), err)
		}
		if !res.Reproduced {
			t.Errorf("%s: recorded %q, replay produced %q", b.Name(), b.Observed, res.Key)
		}
		if !res.StillForbidden {
			t.Errorf("%s: recorded outcome %q is now inside the allowed set %v", b.Name(), b.Observed, res.Allowed)
		}
	}
}

// TestCorpusMutantsStillCaught: re-running the full differential check
// on each bundle's minimized program (same model, mutation, seeds)
// still finds a violation — the corpus programs remain effective
// mutation killers, independent of the recorded run.
func TestCorpusMutantsStillCaught(t *testing.T) {
	for _, b := range corpusBundles(t) {
		model, err := consistency.ParseModel(b.Model)
		if err != nil {
			t.Fatal(err)
		}
		mut, err := consistency.ParseMutation(b.Mutate)
		if err != nil {
			t.Fatal(err)
		}
		p := Program{Seed: b.GenSeed, Threads: b.Threads, Stride: b.Stride}
		rep, err := CheckModel(context.Background(), p, model, CheckConfig{Runs: b.Runs, Seed: b.CheckSeed, Mutate: mut})
		if err != nil {
			t.Fatal(err)
		}
		if len(rep.Violations) == 0 {
			t.Errorf("%s: minimized program no longer catches %s under %s over %d runs",
				b.Name(), b.Mutate, b.Model, b.Runs)
		}
	}
}

// TestCorpusRealModelsPass: the same minimized programs run clean on
// every unmutated model — the corpus flags defects, not the hardware.
func TestCorpusRealModelsPass(t *testing.T) {
	cfg := CheckConfig{Runs: 15, Seed: 1}
	for _, b := range corpusBundles(t) {
		p := Program{Seed: b.GenSeed, Threads: b.Threads, Stride: b.Stride}
		rep, err := CheckProgram(context.Background(), p, consistency.Models, cfg)
		if err != nil {
			t.Fatal(err)
		}
		for _, v := range rep.Violations() {
			t.Errorf("%s: unmutated %s produced forbidden %q on the corpus program %s",
				b.Name(), v.Model, v.Outcome, litmus.FormatProgram(b.Threads))
		}
	}
}

// TestBundleRoundTrip: a freshly assembled bundle written to disk and
// loaded back replays identically to the in-memory original.
func TestBundleRoundTrip(t *testing.T) {
	g := DefaultGen()
	cfg := CheckConfig{Runs: 40, Seed: 1, Mutate: consistency.MutWBNoDrain}
	var bundle *Bundle
	for seed := int64(1); seed <= 80 && bundle == nil; seed++ {
		p := Generate(g, seed)
		for _, m := range consistency.Models {
			rep, err := CheckModel(context.Background(), p, m, cfg)
			if err != nil {
				t.Fatal(err)
			}
			if len(rep.Violations) > 0 {
				v := rep.Violations[0]
				bundle = NewBundle(p, nil, &v, &g, cfg)
				break
			}
		}
	}
	if bundle == nil {
		t.Fatal("no wb-no-drain violation in 80 seeds")
	}

	dir := t.TempDir()
	path, err := bundle.Write(dir)
	if err != nil {
		t.Fatal(err)
	}
	loaded, err := LoadBundle(path)
	if err != nil {
		t.Fatal(err)
	}
	res, err := ReplayBundle(context.Background(), loaded)
	if err != nil {
		t.Fatal(err)
	}
	if !res.OK() {
		t.Fatalf("round-tripped bundle failed to replay: reproduced=%t still-forbidden=%t key=%q recorded=%q",
			res.Reproduced, res.StillForbidden, res.Key, loaded.Observed)
	}
}

// TestLoadBundleRejectsMalformed: a corpus bundle whose program is
// corrupted on disk — a location outside x..w, an operation kind or
// annotation outside its enum — is rejected by LoadBundle with an
// error, before anything formats, synthesizes or replays it.
func TestLoadBundleRejectsMalformed(t *testing.T) {
	for name, corrupt := range map[string]func(*litmus.Op){
		"loc 4":  func(op *litmus.Op) { op.Loc = 4 },
		"loc -1": func(op *litmus.Op) { op.Loc = -1 },
		"kind 7": func(op *litmus.Op) { op.Kind = 7 },
		"ann 9":  func(op *litmus.Op) { op.Ann = 9 },
	} {
		t.Run(name, func(t *testing.T) {
			b := corpusBundles(t)[0]
			corrupt(&b.Threads[0][0])
			path, err := b.Write(t.TempDir())
			if err != nil {
				t.Fatal(err)
			}
			if _, err := LoadBundle(path); err == nil {
				t.Errorf("corrupted bundle (%s) loaded without error", name)
			}
		})
	}
}
