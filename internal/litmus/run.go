package litmus

import (
	"context"
	"errors"
	"fmt"
	"sort"

	"memsim/internal/asm"
	"memsim/internal/consistency"
	"memsim/internal/isa"
	"memsim/internal/machine"
	"memsim/internal/robust"
)

// The perturbation driver. A litmus outcome depends entirely on the
// relative timing of a handful of memory references, so one run
// explores one schedule. To explore many, each seeded run draws a
// different hardware configuration (cache size, line size, MSHR
// count, network buffering, load latency), a different per-thread
// start skew, and — on half the runs — deterministic network fault
// injection (robust.Faults), which jitters message timing without
// changing results. Every run is reproducible from (test, model,
// seed).

// runBudget bounds one litmus run in engine events; generous — these
// programs finish in a few thousand cycles.
const runBudget = 30_000_000

// Config parameterizes a conformance run.
type Config struct {
	Runs int   // perturbed runs per (test, model)
	Seed int64 // base seed; run i derives from Seed+i

	// Mutate seeds a deliberate hardware defect (the self-check). The
	// allowed set still comes from the unmutated model contract — that
	// is the point: a real defect must escape it.
	Mutate consistency.Mutation

	// Ctx, when non-nil, cancels the sweep (e.g. from a SIGINT
	// handler): the current simulated run stops at its next context
	// poll and Run returns the partial report with Interrupted set,
	// instead of an error.
	Ctx context.Context
}

// Violation is one observed outcome outside the model's allowed set.
// Replay embeds everything needed to re-execute the offending run
// bit-exactly — assembled program text, machine configuration,
// observed-load registry, location addresses — so a recorded verdict
// reproduces even against a source tree whose litmus library (or
// perturbation driver) has since changed.
type Violation struct {
	Seed    int64    `json:"seed"`
	Config  string   `json:"config"`
	Outcome string   `json:"outcome"`
	Replay  *RunSpec `json:"replay,omitempty"`
}

// Reproduce re-executes the violation's embedded replay record and
// reports whether the recorded forbidden outcome came back.
func (v *Violation) Reproduce(ctx context.Context) (key string, reproduced bool, err error) {
	if v.Replay == nil {
		return "", false, errors.New("litmus: violation carries no replay record (recorded before verdicts were self-contained?)")
	}
	key, err = v.Replay.Execute(ctx)
	if err != nil {
		return "", false, err
	}
	return key, key == v.Outcome, nil
}

// Report is the verdict of one (test, model) conformance run. When
// Interrupted is set, Runs is how many runs actually completed before
// cancellation and the witnessed counts are a partial coverage view.
type Report struct {
	Test        string         `json:"test"`
	Model       string         `json:"model"`
	Mutate      string         `json:"mutate,omitempty"`
	Runs        int            `json:"runs"`
	Allowed     []string       `json:"allowed"`
	Witnessed   map[string]int `json:"witnessed"`
	Violations  []Violation    `json:"violations,omitempty"`
	Interrupted bool           `json:"interrupted,omitempty"`
}

// OK reports whether every observed outcome was allowed.
func (r *Report) OK() bool { return len(r.Violations) == 0 }

// Unwitnessed lists allowed outcomes no run produced — the coverage
// gap. A non-empty list is not a failure: relaxed outcomes need the
// timing dice to land, and some (like IRIW's) are rare.
func (r *Report) Unwitnessed() []string {
	var missing []string
	for _, k := range r.Allowed {
		if r.Witnessed[k] == 0 {
			missing = append(missing, k)
		}
	}
	return missing
}

// splitmix64 steps the driver's private PRNG stream.
func splitmix64(x *uint64) uint64 {
	*x += 0x9e3779b97f4a7c15
	z := *x
	z = (z ^ (z >> 30)) * 0xbf58476d1ce4e5b9
	z = (z ^ (z >> 27)) * 0x94d049bb133111eb
	return z ^ (z >> 31)
}

// variation is one drawn machine configuration.
type variation struct {
	cacheSize int
	lineSize  int
	mshrs     int
	netBuf    int
	loadDelay int
	faults    robust.Faults
	stagger   []int
	layout    Layout
	warm      []uint64
}

func (v variation) String() string {
	s := fmt.Sprintf("cache=%d line=%d mshrs=%d netbuf=%d ld=%d base=%d warm=%v stagger=%v",
		v.cacheSize, v.lineSize, v.mshrs, v.netBuf, v.loadDelay, v.layout.Base, v.warm, v.stagger)
	if v.faults.Enabled() {
		s += fmt.Sprintf(" faults=p%g/d%d", v.faults.DelayProb, v.faults.MaxExtraDelay)
	}
	return s
}

// drawVariation derives run i's configuration from the seed stream.
func drawVariation(x *uint64, threads int) variation {
	pick := func(vals []int) int { return vals[splitmix64(x)%uint64(len(vals))] }
	v := variation{
		cacheSize: pick([]int{512, 1024, 2048}),
		lineSize:  pick([]int{8, 16, 32, 64}),
		mshrs:     pick([]int{2, 5}),
		netBuf:    pick([]int{1, 2, 4}),
		loadDelay: pick([]int{1, 2, 4, 7}),
		stagger:   make([]int, threads),
		// A word-granular base offset reshuffles which home module
		// each location maps to, run by run.
		layout: Layout{Base: locBase + 8*(splitmix64(x)%32)},
		warm:   make([]uint64, threads),
	}
	// Per-thread warm mask: 1/4 cold, 1/4 fully warmed, 1/2 a random
	// subset of locations. Full warming makes a thread's loads hit
	// (bind-early, enabling store-load reordering); a partial mask
	// mixes hit-early and miss-late loads within one thread, which is
	// what reorders a thread's own loads (load buffering, IRIW).
	for t := range v.warm {
		switch splitmix64(x) % 4 {
		case 0:
			v.warm[t] = 0
		case 1:
			v.warm[t] = 0xff // every location (tests use far fewer than 8)
		default:
			v.warm[t] = splitmix64(x) & 0xff
		}
	}
	if splitmix64(x)%2 == 0 {
		v.faults = robust.Faults{
			Seed:          int64(splitmix64(x)),
			DelayProb:     []float64{0.1, 0.25, 0.5}[splitmix64(x)%3],
			MaxExtraDelay: int(splitmix64(x)%8) + 1,
		}
	}
	for t := range v.stagger {
		v.stagger[t] = int(splitmix64(x) % 8)
	}
	return v
}

// haltProg occupies processors beyond the test's threads.
var haltProg = []isa.Inst{{Op: isa.HALT}}

// procsFor rounds a thread count up to a valid processor count.
func procsFor(threads int) int {
	p := 2
	for p < threads {
		p *= 2
	}
	return p
}

// RunSpec is the fully resolved plan of one seeded litmus run: the
// assembled per-thread programs (as re-assemblable text), the exact
// machine configuration the perturbation driver drew for the seed,
// the observed-load registry, and the shared addresses of the test's
// locations. It is the self-contained replay record embedded in
// violation verdicts and difftest repro bundles: Execute reproduces
// the run bit-exactly from the record alone, with no dependency on
// the test library or driver version that produced it.
type RunSpec struct {
	Test     string         `json:"test"`
	Model    string         `json:"model"`
	Seed     int64          `json:"seed"`
	Mutate   string         `json:"mutate,omitempty"`
	Programs []string       `json:"programs"` // asm text, one per test thread
	Machine  machine.Config `json:"machine"`
	Refs     []LoadRef      `json:"refs"`
	LocNames []string       `json:"loc_names"`
	LocAddrs []uint64       `json:"loc_addrs"`
	Desc     string         `json:"desc,omitempty"` // human-readable variation summary

	progs [][]isa.Inst // compiled programs, cached by Setup
}

// Setup resolves one seeded run without executing it: it derives the
// perturbation variation from the seed, generates and assembles the
// test's programs, and returns the serializable RunSpec.
func Setup(t *Test, model consistency.Model, seed int64, mutate consistency.Mutation) (*RunSpec, error) {
	x := uint64(seed)
	splitmix64(&x) // decorrelate consecutive seeds
	threads := t.NumThreads()
	v := drawVariation(&x, threads)
	v.layout.Stride = t.Stride

	progs, refs, err := t.Programs(v.layout, v.stagger, v.warm)
	if err != nil {
		return nil, err
	}
	rs := &RunSpec{
		Test:  t.Name,
		Model: model.String(),
		Seed:  seed,
		Machine: machine.Config{
			Procs:       procsFor(threads),
			Model:       model,
			CacheSize:   v.cacheSize,
			LineSize:    v.lineSize,
			MSHRs:       v.mshrs,
			NetBuf:      v.netBuf,
			LoadDelay:   v.loadDelay,
			SharedWords: 1 << 11,
			Faults:      v.faults,
			Mutate:      mutate,
		},
		Refs:     refs,
		LocNames: make([]string, t.NLocs),
		LocAddrs: make([]uint64, t.NLocs),
		Desc:     v.String(),
		progs:    progs,
	}
	if mutate != consistency.MutNone {
		rs.Mutate = mutate.String()
	}
	rs.Programs = make([]string, len(progs))
	for i, p := range progs {
		rs.Programs[i] = asm.Disassemble(p)
	}
	for l := 0; l < t.NLocs; l++ {
		rs.LocNames[l] = t.locName(l)
		rs.LocAddrs[l] = v.layout.Addr(l)
	}
	return rs, nil
}

// Execute runs the spec on the simulated machine and returns the
// observed outcome key. A spec decoded from JSON re-assembles its
// embedded program text; one fresh from Setup reuses the compiled
// programs. A nil ctx runs uninterruptible; a canceled ctx surfaces
// as a Canceled SimError unwrapping to the context error.
func (rs *RunSpec) Execute(ctx context.Context) (string, error) {
	progs := rs.progs
	if progs == nil {
		progs = make([][]isa.Inst, len(rs.Programs))
		for i, src := range rs.Programs {
			p, err := asm.Assemble(src)
			if err != nil {
				return "", fmt.Errorf("litmus: replay %s/%s seed %d thread %d: %w", rs.Test, rs.Model, rs.Seed, i, err)
			}
			progs[i] = p
		}
	}
	cfg := rs.Machine
	mu, err := consistency.ParseMutation(rs.Mutate)
	if err != nil {
		return "", fmt.Errorf("litmus: replay %s/%s seed %d: %w", rs.Test, rs.Model, rs.Seed, err)
	}
	cfg.Mutate = mu // Config.Mutate is json:"-"; the string field is authoritative

	all := make([][]isa.Inst, cfg.Procs)
	for i := range all {
		if i < len(progs) {
			all[i] = progs[i]
		} else {
			all[i] = haltProg
		}
	}
	m, err := machine.New(cfg, all)
	if err != nil {
		return "", fmt.Errorf("litmus: %s/%s seed %d (%s): %w", rs.Test, rs.Model, rs.Seed, rs.Desc, err)
	}
	if _, err := m.RunControlled(machine.RunControl{MaxEvents: runBudget, Ctx: ctx}); err != nil {
		return "", fmt.Errorf("litmus: %s/%s seed %d (%s): %w", rs.Test, rs.Model, rs.Seed, rs.Desc, err)
	}

	o := Outcome{
		Loads: make([]uint64, len(rs.Refs)),
		Mem:   make([]uint64, len(rs.LocAddrs)),
	}
	for i, r := range rs.Refs {
		o.Loads[i] = m.CPU(r.Thread).Reg(r.Reg)
	}
	for l, addr := range rs.LocAddrs {
		o.Mem[l] = m.ReadWord(addr)
	}
	return FormatKey(rs.Refs, rs.LocNames, o), nil
}

// RunOne executes a single seeded run of a test under a model and
// returns the observed outcome key.
func RunOne(ctx context.Context, t *Test, model consistency.Model, seed int64, mutate consistency.Mutation) (string, error) {
	rs, err := Setup(t, model, seed, mutate)
	if err != nil {
		return "", err
	}
	return rs.Execute(ctx)
}

// Run executes the full perturbed conformance sweep of one test under
// one model and returns the verdict report. The allowed set always
// reflects the unmutated model contract.
func Run(t *Test, model consistency.Model, cfg Config) (*Report, error) {
	if cfg.Runs <= 0 {
		cfg.Runs = 100
	}
	keys, err := t.Allowed(consistency.SpecFor(model))
	if err != nil {
		return nil, err
	}
	allowed := make(map[string]bool, len(keys))
	for _, k := range keys {
		allowed[k] = true
	}

	rep := &Report{
		Test:      t.Name,
		Model:     model.String(),
		Runs:      cfg.Runs,
		Allowed:   keys,
		Witnessed: make(map[string]int),
	}
	if cfg.Mutate != consistency.MutNone {
		rep.Mutate = cfg.Mutate.String()
	}
	for i := 0; i < cfg.Runs; i++ {
		if cfg.Ctx != nil && cfg.Ctx.Err() != nil {
			rep.Runs, rep.Interrupted = i, true
			return rep, nil
		}
		seed := cfg.Seed + int64(i)
		key, err := RunOne(cfg.Ctx, t, model, seed, cfg.Mutate)
		if err != nil {
			if cfg.Ctx != nil && cfg.Ctx.Err() != nil && errors.Is(err, cfg.Ctx.Err()) {
				// Canceled mid-run: the partial coverage so far is the
				// report, not an error.
				rep.Runs, rep.Interrupted = i, true
				return rep, nil
			}
			return nil, err
		}
		rep.Witnessed[key]++
		if !allowed[key] {
			// Rebuild the run's full spec so the verdict is self-
			// contained: the bundle replays without this library.
			rs, rerr := Setup(t, model, seed, cfg.Mutate)
			if rerr != nil {
				return nil, rerr
			}
			rep.Violations = append(rep.Violations, Violation{
				Seed:    seed,
				Config:  rs.Desc,
				Outcome: key,
				Replay:  rs,
			})
		}
	}
	return rep, nil
}

// WitnessedKeys returns the witnessed outcome keys, sorted.
func (r *Report) WitnessedKeys() []string {
	keys := make([]string, 0, len(r.Witnessed))
	for k := range r.Witnessed {
		keys = append(keys, k)
	}
	sort.Strings(keys)
	return keys
}
