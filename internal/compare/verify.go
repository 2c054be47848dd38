package compare

import (
	"context"
	"encoding/json"
	"fmt"
	"os"

	"memsim/internal/consistency"
	"memsim/internal/litmus"
)

// VerifyConfig controls hardware replay of engine-found witnesses.
type VerifyConfig struct {
	Runs int   // perturbed runs per side per candidate
	Seed int64 // base seed
}

// DefaultVerify matches the acceptance bar: 1000 perturbed runs on
// each of the pair's two models.
func DefaultVerify() VerifyConfig { return VerifyConfig{Runs: 1000, Seed: 1} }

// Verification is the hardware replay record attached to a witness.
//
// A witness is Verified when the distinguishing outcome showed up on
// the weak model's hardware, never showed up on the strong model's,
// and every outcome either side produced lies inside that side's
// engine-allowed set (so the engine over-approximates the hardware,
// as soundness requires).
//
// WeakHits can legitimately be zero: the engine bounds what the
// architecture admits, and some admitted reorderings need timing
// windows this memory system rarely or never opens (e.g. plain
// message-passing on PSO needs the reader to observe the flag while
// holding a stale cached copy of the data, which the directory's
// invalidate-before-grant discipline almost always closes). Such a
// witness still separates the models architecturally; the report
// keeps it with Verified=false rather than hiding the pair.
type Verification struct {
	WeakModel        string `json:"weak_model"`
	StrongModel      string `json:"strong_model"`
	Runs             int    `json:"runs"`
	WeakHits         int    `json:"weak_hits"`
	WeakHitSeed      int64  `json:"weak_hit_seed,omitempty"`
	WeakConformant   bool   `json:"weak_conformant"`
	StrongViolations int    `json:"strong_violations"`
	StrongConformant bool   `json:"strong_conformant"`
	Verified         bool   `json:"verified"`
}

// verifyWitness replays one candidate on both models.
func verifyWitness(ctx context.Context, w *Witness, weak, strong consistency.Model, cfg VerifyConfig) (*Verification, error) {
	t, _ := litmus.SynthTest(w.Threads)
	t.Name = fmt.Sprintf("witness-%s-not-%s", w.Weak, w.Strong)
	v := &Verification{
		WeakModel:      weak.String(),
		StrongModel:    strong.String(),
		Runs:           cfg.Runs,
		WeakConformant: true, StrongConformant: true,
	}
	weakSet := toSet(w.WeakAllowed)
	strongSet := toSet(w.StrongAllowed)
	for i := 0; i < cfg.Runs; i++ {
		seed := cfg.Seed + int64(i)
		key, err := litmus.RunOne(ctx, t, weak, seed, consistency.MutNone)
		if err != nil {
			return nil, fmt.Errorf("weak side %s seed %d: %w", weak, seed, err)
		}
		if !weakSet[key] {
			v.WeakConformant = false
		}
		if key == w.Outcome {
			v.WeakHits++
			if v.WeakHitSeed == 0 {
				v.WeakHitSeed = seed
			}
		}
	}
	for i := 0; i < cfg.Runs; i++ {
		seed := cfg.Seed + int64(i)
		key, err := litmus.RunOne(ctx, t, strong, seed, consistency.MutNone)
		if err != nil {
			return nil, fmt.Errorf("strong side %s seed %d: %w", strong, seed, err)
		}
		if !strongSet[key] {
			v.StrongConformant = false
		}
		if key == w.Outcome {
			v.StrongViolations++
		}
	}
	v.Verified = v.WeakHits > 0 && v.StrongViolations == 0 && v.WeakConformant && v.StrongConformant
	return v, nil
}

// Verify replays every separated pair's witness candidates on the
// pair's representative hardware models. Candidates are tried in
// minimality order; the first fully verified one becomes the pair's
// primary witness. If none verifies (typically because the weak-side
// outcome needs a timing window the machine rarely opens), the
// minimal candidate stays primary with its replay record attached.
func (r *Result) Verify(ctx context.Context, cfg VerifyConfig) error {
	reps := make(map[string]consistency.Model)
	for _, c := range r.Classes {
		m, err := consistency.ParseModel(c.Name)
		if err != nil {
			return err
		}
		reps[c.Name] = m
	}
	for i := range r.Pairs {
		p := &r.Pairs[i]
		if !p.Separated {
			continue
		}
		var first *Witness
		for _, cand := range p.Candidates {
			v, err := verifyWitness(ctx, cand, reps[p.Weak], reps[p.Strong], cfg)
			if err != nil {
				return err
			}
			cand.Verification = v
			if first == nil {
				first = cand
			}
			if v.Verified {
				p.Witness = cand
				break
			}
		}
		if p.Witness.Verification == nil {
			p.Witness = first
		}
	}
	return nil
}

// WriteWitnesses dumps each separated pair's primary witness as a
// replayable JSON file under dir, named <weak>-not-<strong>.json, and
// returns the file count.
func (r *Result) WriteWitnesses(dir string) (int, error) {
	if err := os.MkdirAll(dir, 0o755); err != nil {
		return 0, err
	}
	n := 0
	for _, p := range r.Pairs {
		if !p.Separated {
			continue
		}
		data, err := json.MarshalIndent(p.Witness, "", "  ")
		if err != nil {
			return n, err
		}
		path := fmt.Sprintf("%s/%s-not-%s.json", dir, p.Weak, p.Strong)
		if err := os.WriteFile(path, append(data, '\n'), 0o644); err != nil {
			return n, err
		}
		n++
	}
	return n, nil
}

// LoadWitness reads a witness file written by WriteWitnesses.
func LoadWitness(path string) (*Witness, error) {
	data, err := os.ReadFile(path)
	if err != nil {
		return nil, err
	}
	var w Witness
	if err := json.Unmarshal(data, &w); err != nil {
		return nil, fmt.Errorf("%s: %w", path, err)
	}
	if err := litmus.ValidateProgram(w.Threads); err != nil {
		return nil, fmt.Errorf("%s: %w", path, err)
	}
	return &w, nil
}

// Replay re-verifies a loaded witness on its recorded model pair.
func Replay(ctx context.Context, w *Witness, cfg VerifyConfig) (*Verification, error) {
	weak, err := consistency.ParseModel(w.Weak)
	if err != nil {
		return nil, err
	}
	strong, err := consistency.ParseModel(w.Strong)
	if err != nil {
		return nil, err
	}
	return verifyWitness(ctx, w, weak, strong, cfg)
}
