package difftest

import (
	"context"
	"fmt"
	"sort"

	"memsim/internal/consistency"
	"memsim/internal/litmus"
	"memsim/internal/robust"
)

// CheckConfig parameterizes the differential check of one program.
type CheckConfig struct {
	Runs int   // perturbed hardware runs per (program, model)
	Seed int64 // base seed; run i uses Seed+i

	// Mutate seeds a deliberate hardware defect (the self-check). The
	// allowed set always comes from the unmutated model contract —
	// that is the point: a real defect must escape it.
	Mutate consistency.Mutation
}

func (c CheckConfig) withDefaults() CheckConfig {
	if c.Runs <= 0 {
		c.Runs = 25
	}
	if c.Seed == 0 {
		c.Seed = 1
	}
	return c
}

// Violation is one hardware outcome outside the model's engine-
// allowed set. Replay embeds the offending run's full spec, so the
// violation reproduces bit-exactly from the record alone.
type Violation struct {
	Model   string          `json:"model"`
	Seed    int64           `json:"seed"`
	Outcome string          `json:"outcome"`
	Allowed []string        `json:"allowed"`
	Replay  *litmus.RunSpec `json:"replay,omitempty"`

	prog Program // the program that produced it
}

// Error renders the violation as a typed robust.SimError, so callers
// can classify it alongside the simulator's other structured
// failures.
func (v *Violation) Error() *robust.SimError {
	return &robust.SimError{
		Kind:      robust.Conformance,
		Component: "difftest",
		Unit:      -1,
		Detail: fmt.Sprintf("%s hardware produced %q, outside its model's allowed set (program %s, seed %d)",
			v.Model, v.Outcome, litmus.FormatProgram(v.prog.Threads), v.Seed),
	}
}

// ModelReport is the verdict of one (program, model) check.
type ModelReport struct {
	Model      string         `json:"model"`
	Runs       int            `json:"runs"`
	Allowed    []string       `json:"allowed"` // engine-derived allowed outcome keys
	Witnessed  map[string]int `json:"witnessed"`
	Violations []Violation    `json:"violations,omitempty"`
}

// Report is the verdict of one program across a model set.
type Report struct {
	Program Program       `json:"program"`
	Text    string        `json:"text"` // litmus notation
	Runs    int           `json:"runs"`
	Models  []ModelReport `json:"models"`
}

// OK reports whether every model's every observed outcome was allowed.
func (r *Report) OK() bool { return len(r.Violations()) == 0 }

// Violations flattens the per-model violation lists.
func (r *Report) Violations() []Violation {
	var out []Violation
	for _, m := range r.Models {
		out = append(out, m.Violations...)
	}
	return out
}

// synth wraps the program as a runnable litmus test.
func synth(p Program) *litmus.Test {
	t, _ := litmus.SynthTest(p.Threads)
	t.Name = fmt.Sprintf("difftest-%d", p.Seed)
	t.Stride = p.Stride
	return t
}

// AllowedSet computes the spec-derived engine's allowed outcome keys
// for the program under one model, cross-validated against the SC
// interleaving oracle: an SC spec's engine set must equal the oracle
// set exactly, and a relaxed spec's must contain it (the engine only
// ever adds outcomes by relaxing order). A mismatch is an engine
// soundness bug and comes back as a typed Conformance error.
func AllowedSet(p Program, spec consistency.Spec) ([]string, error) {
	t := synth(p)
	engine, err := t.Allowed(spec)
	if err != nil {
		return nil, err
	}
	oracle, err := t.OracleKeys()
	if err != nil {
		return nil, err
	}
	engineSet := make(map[string]bool, len(engine))
	for _, k := range engine {
		engineSet[k] = true
	}
	for _, k := range oracle {
		if !engineSet[k] {
			return nil, &robust.SimError{
				Kind:      robust.Conformance,
				Component: "difftest",
				Unit:      -1,
				Detail: fmt.Sprintf("engine under %s drops SC-reachable outcome %q of program %s",
					spec.Name, k, litmus.FormatProgram(p.Threads)),
			}
		}
	}
	if spec.SequentiallyConsistent() && len(engine) != len(oracle) {
		return nil, &robust.SimError{
			Kind:      robust.Conformance,
			Component: "difftest",
			Unit:      -1,
			Detail: fmt.Sprintf("engine under SC spec %s allows %d outcomes, oracle %d, on program %s",
				spec.Name, len(engine), len(oracle), litmus.FormatProgram(p.Threads)),
		}
	}
	return engine, nil
}

// CheckModel runs the program cfg.Runs times on the simulated
// hardware under one model (each run drawing a different perturbation
// from its seed) and checks every observed outcome against the
// engine's allowed set.
func CheckModel(ctx context.Context, p Program, model consistency.Model, cfg CheckConfig) (*ModelReport, error) {
	cfg = cfg.withDefaults()
	spec := consistency.SpecFor(model)
	allowed, err := AllowedSet(p, spec)
	if err != nil {
		return nil, err
	}
	allowedSet := make(map[string]bool, len(allowed))
	for _, k := range allowed {
		allowedSet[k] = true
	}

	t := synth(p)
	rep := &ModelReport{
		Model:     model.String(),
		Runs:      cfg.Runs,
		Allowed:   allowed,
		Witnessed: make(map[string]int),
	}
	for i := 0; i < cfg.Runs; i++ {
		if ctx != nil && ctx.Err() != nil {
			return nil, ctx.Err()
		}
		seed := cfg.Seed + int64(i)
		key, err := litmus.RunOne(ctx, t, model, seed, cfg.Mutate)
		if err != nil {
			return nil, err
		}
		rep.Witnessed[key]++
		if !allowedSet[key] {
			rs, rerr := litmus.Setup(t, model, seed, cfg.Mutate)
			if rerr != nil {
				return nil, rerr
			}
			rep.Violations = append(rep.Violations, Violation{
				Model:   model.String(),
				Seed:    seed,
				Outcome: key,
				Allowed: allowed,
				Replay:  rs,
				prog:    p,
			})
		}
	}
	return rep, nil
}

// CheckProgram runs the differential check across a model set.
func CheckProgram(ctx context.Context, p Program, models []consistency.Model, cfg CheckConfig) (*Report, error) {
	rep := &Report{
		Program: p,
		Text:    litmus.FormatProgram(p.Threads),
		Runs:    cfg.withDefaults().Runs,
	}
	for _, m := range models {
		mr, err := CheckModel(ctx, p, m, cfg)
		if err != nil {
			return nil, err
		}
		rep.Models = append(rep.Models, *mr)
	}
	return rep, nil
}

// WitnessedKeys returns a model report's witnessed outcomes, sorted.
func (m *ModelReport) WitnessedKeys() []string {
	keys := make([]string, 0, len(m.Witnessed))
	for k := range m.Witnessed {
		keys = append(keys, k)
	}
	sort.Strings(keys)
	return keys
}
