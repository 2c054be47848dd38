package difftest

import (
	"context"
	"encoding/json"
	"fmt"
	"os"
	"path/filepath"
	"strings"

	"memsim/internal/consistency"
	"memsim/internal/litmus"
)

// BundleVersion tags the repro-bundle schema.
const BundleVersion = 1

// Bundle is a self-contained JSON reproducer for one differential
// violation: the (usually shrunk) program in abstract and assembled
// form, the model and seeded defect it ran under, the engine's
// allowed outcome set, the forbidden outcome observed, and the
// embedded litmus.RunSpec that replays the offending run bit-exactly
// with no dependency on the generator, library, or driver version
// that produced it.
type Bundle struct {
	Version int    `json:"version"`
	Tool    string `json:"tool"` // "difftest"

	// Provenance: the generator draw that produced the original
	// program, when it came from the generator.
	GenSeed int64      `json:"gen_seed,omitempty"`
	Gen     *GenConfig `json:"gen,omitempty"`

	Model  string `json:"model"`
	Mutate string `json:"mutate,omitempty"`

	// The differential-check parameters the violation (and any
	// shrink re-verification) ran under.
	CheckSeed int64 `json:"check_seed"`
	Runs      int   `json:"runs"`

	Text     string          `json:"text"` // litmus notation of Threads
	Threads  []litmus.Thread `json:"threads"`
	Stride   uint64          `json:"stride,omitempty"`
	Original []litmus.Thread `json:"original,omitempty"` // pre-shrink program, if shrunk

	Allowed       []string        `json:"allowed"`  // engine-allowed keys of Threads under Model
	Observed      string          `json:"observed"` // the forbidden outcome
	ViolationSeed int64           `json:"violation_seed"`
	Replay        *litmus.RunSpec `json:"replay"`
}

// NewBundle assembles a bundle from a violation of program p. orig,
// when non-nil, is the pre-shrink program; gen, when non-nil, records
// the generator dials.
func NewBundle(p Program, orig []litmus.Thread, v *Violation, gen *GenConfig, cfg CheckConfig) *Bundle {
	cfg = cfg.withDefaults()
	b := &Bundle{
		Version:       BundleVersion,
		Tool:          "difftest",
		GenSeed:       p.Seed,
		Gen:           gen,
		Model:         v.Model,
		CheckSeed:     cfg.Seed,
		Runs:          cfg.Runs,
		Text:          litmus.FormatProgram(p.Threads),
		Threads:       p.Threads,
		Stride:        p.Stride,
		Original:      orig,
		Allowed:       v.Allowed,
		Observed:      v.Outcome,
		ViolationSeed: v.Seed,
		Replay:        v.Replay,
	}
	if cfg.Mutate != consistency.MutNone {
		b.Mutate = cfg.Mutate.String()
	}
	return b
}

// Name returns the bundle's canonical file name.
func (b *Bundle) Name() string {
	mut := b.Mutate
	if mut == "" {
		mut = "real"
	}
	return fmt.Sprintf("%s-%s-%d.json", mut, strings.ToLower(b.Model), b.GenSeed)
}

// Write dumps the bundle under dir (created if needed) and returns
// the file path.
func (b *Bundle) Write(dir string) (string, error) {
	if err := os.MkdirAll(dir, 0o755); err != nil {
		return "", err
	}
	data, err := json.MarshalIndent(b, "", "  ")
	if err != nil {
		return "", err
	}
	path := filepath.Join(dir, b.Name())
	if err := os.WriteFile(path, append(data, '\n'), 0o644); err != nil {
		return "", err
	}
	return path, nil
}

// LoadBundle reads a bundle file back.
func LoadBundle(path string) (*Bundle, error) {
	data, err := os.ReadFile(path)
	if err != nil {
		return nil, err
	}
	var b Bundle
	if err := json.Unmarshal(data, &b); err != nil {
		return nil, fmt.Errorf("%s: %w", path, err)
	}
	if b.Replay == nil {
		return nil, fmt.Errorf("%s: bundle has no replay record", path)
	}
	if err := litmus.ValidateProgram(b.Threads); err != nil {
		return nil, fmt.Errorf("%s: %w", path, err)
	}
	return &b, nil
}

// ReplayResult is the verdict of replaying a bundle.
type ReplayResult struct {
	Key            string   `json:"key"`             // outcome the replayed run produced
	Reproduced     bool     `json:"reproduced"`      // Key == the recorded Observed outcome
	StillForbidden bool     `json:"still_forbidden"` // Observed outside the current engine's allowed set
	Allowed        []string `json:"allowed"`         // current engine's allowed set
}

// OK reports whether the bundle replayed to the same verdict: the
// recorded run reproduced its outcome bit-exactly and that outcome is
// still outside the model's engine-allowed set.
func (r *ReplayResult) OK() bool { return r.Reproduced && r.StillForbidden }

// ReplayBundle re-executes the bundle's embedded run spec and
// re-derives the engine's allowed set for its program, so a bundle
// both reproduces its machine-level outcome and re-validates that the
// outcome is still forbidden by the (current) model contract.
func ReplayBundle(ctx context.Context, b *Bundle) (*ReplayResult, error) {
	model, err := consistency.ParseModel(b.Model)
	if err != nil {
		return nil, err
	}
	allowed, err := AllowedSet(Program{Seed: b.GenSeed, Threads: b.Threads, Stride: b.Stride}, consistency.SpecFor(model))
	if err != nil {
		return nil, err
	}
	key, err := b.Replay.Execute(ctx)
	if err != nil {
		return nil, err
	}
	res := &ReplayResult{
		Key:            key,
		Reproduced:     key == b.Observed,
		StillForbidden: true,
		Allowed:        allowed,
	}
	for _, k := range allowed {
		if k == b.Observed {
			res.StillForbidden = false
			break
		}
	}
	return res, nil
}
