// litmus runs the memory-model conformance harness from the command
// line: classic litmus tests generated onto the simulated machine,
// executed under perturbed seeds, with every observed outcome checked
// against the model's allowed set (every outcome the model's spec-
// derived ordering rules let the test's operations reach).
//
// Usage:
//
//	litmus                           # every test under every model
//	litmus -test sb -model WO1       # one (test, model) pair
//	litmus -runs 1000 -seed 7        # deeper, different perturbations
//	litmus -json                     # machine-readable reports
//	litmus -list                     # describe the test library
//	litmus -models                   # describe the model zoo's hardware
//	litmus -mutate sc-overlap        # seed the SC self-check defect
//	litmus -mutate wb-no-drain       # seed the write-buffer defect
//	litmus -json > verdicts.json     # record self-contained verdicts
//	litmus -replay verdicts.json     # re-run recorded violations
//
// Exit status is nonzero if any run produced an outcome outside its
// model's allowed set. With -replay the convention flips to match:
// each recorded violation is re-executed bit-exactly from its embedded
// run spec (program text, machine config, seed), and the exit status
// is nonzero iff a violation reproduces — a recorded defect that has
// since been fixed replays clean and exits 0. SIGINT/SIGTERM stops the sweep cleanly: the
// in-flight simulation is canceled at its next context poll, every
// completed (test, model) pair is reported in full, the interrupted
// pair reports the partial coverage it gathered, and the process
// exits 130.
package main

import (
	"context"
	"encoding/json"
	"flag"
	"fmt"
	"io"
	"os"
	"os/signal"
	"sort"
	"strings"
	"syscall"

	"memsim/internal/consistency"
	"memsim/internal/litmus"
)

func main() {
	var (
		testF  = flag.String("test", "all", "litmus test name, or all")
		modelF = flag.String("model", "all",
			fmt.Sprintf("memory model (%s), or all", strings.Join(consistency.ModelNames(), ",")))
		runs    = flag.Int("runs", 150, "perturbed runs per (test, model)")
		seed    = flag.Int64("seed", 1, "base seed; run i uses seed+i")
		jsonF   = flag.Bool("json", false, "emit one JSON report per (test, model)")
		list    = flag.Bool("list", false, "list the test library and exit")
		modelsF = flag.Bool("models", false, "list the model zoo with hardware summaries and exit")
		mutate  = flag.String("mutate", "", "seed a spec defect (sc-overlap, wb-no-drain) for the self-check")
		replayF = flag.String("replay", "", "replay recorded violations from a -json verdict file; exit nonzero iff one reproduces")
	)
	flag.Parse()

	if *list {
		tests := litmus.Library()
		sort.Slice(tests, func(i, j int) bool { return tests[i].Name < tests[j].Name })
		for _, t := range tests {
			fmt.Printf("%-10s %s\n", t.Name, t.Doc)
		}
		return
	}
	if *modelsF {
		for _, m := range consistency.Models {
			fmt.Printf("%-5s %s\n", m, consistency.SpecFor(m).Summary())
		}
		return
	}

	ctx, stop := signal.NotifyContext(context.Background(), syscall.SIGINT, syscall.SIGTERM)
	defer stop()

	if *replayF != "" {
		if err := replayVerdicts(ctx, *replayF); err != nil {
			fatal(err)
		}
		return
	}

	tests, err := selectTests(*testF)
	if err != nil {
		fatal(err)
	}
	models, err := selectModels(*modelF)
	if err != nil {
		fatal(err)
	}
	mut, err := consistency.ParseMutation(*mutate)
	if err != nil {
		fatal(err)
	}

	cfg := litmus.Config{Runs: *runs, Seed: *seed, Mutate: mut, Ctx: ctx}
	enc := json.NewEncoder(os.Stdout)
	enc.SetIndent("", "  ")
	violations, pairs, ranPairs := 0, len(tests)*len(models), 0
	interrupted := false
	for _, t := range tests {
		for _, m := range models {
			if ctx.Err() != nil {
				interrupted = true
				break
			}
			rep, err := litmus.Run(t, m, cfg)
			if err != nil {
				fatal(err)
			}
			ranPairs++
			violations += len(rep.Violations)
			interrupted = interrupted || rep.Interrupted
			if *jsonF {
				if err := enc.Encode(rep); err != nil {
					fatal(err)
				}
				continue
			}
			printReport(rep)
		}
	}
	if violations > 0 {
		fmt.Fprintf(os.Stderr, "litmus: %d outcome(s) outside the allowed set\n", violations)
		os.Exit(1)
	}
	if interrupted {
		fmt.Fprintf(os.Stderr, "litmus: interrupted — partial coverage (%d of %d (test, model) pairs started)\n",
			ranPairs, pairs)
		os.Exit(130)
	}
}

// replayVerdicts re-executes every recorded violation in a -json
// verdict stream from its embedded run spec and reports which ones
// still reproduce. The exit convention is inverted relative to a
// sweep: nonzero iff a violation reproduces.
func replayVerdicts(ctx context.Context, path string) error {
	f, err := os.Open(path)
	if err != nil {
		return err
	}
	defer f.Close()

	dec := json.NewDecoder(f)
	total, reproduced, skipped := 0, 0, 0
	for {
		var rep litmus.Report
		if err := dec.Decode(&rep); err != nil {
			if err == io.EOF {
				break
			}
			return fmt.Errorf("%s: %w", path, err)
		}
		for _, v := range rep.Violations {
			if v.Replay == nil {
				skipped++
				fmt.Printf("SKIP %-10s %-5s %q (verdict predates embedded run specs)\n",
					rep.Test, rep.Model, v.Outcome)
				continue
			}
			total++
			key, ok, err := v.Reproduce(ctx)
			if err != nil {
				return err
			}
			verdict := "CLEAN"
			if ok {
				verdict = "REPRO"
				reproduced++
			}
			fmt.Printf("%-5s %-10s %-5s seed=%d recorded=%q replayed=%q\n",
				verdict, rep.Test, rep.Model, v.Seed, v.Outcome, key)
		}
	}
	fmt.Printf("litmus: replayed %d recorded violation(s): %d reproduced, %d skipped\n",
		total, reproduced, skipped)
	if reproduced > 0 {
		os.Exit(1)
	}
	return nil
}

func selectTests(name string) ([]*litmus.Test, error) {
	if name == "all" {
		return litmus.Library(), nil
	}
	var tests []*litmus.Test
	for _, n := range strings.Split(name, ",") {
		t, err := litmus.TestByName(strings.TrimSpace(n))
		if err != nil {
			return nil, err
		}
		tests = append(tests, t)
	}
	return tests, nil
}

func selectModels(name string) ([]consistency.Model, error) {
	if name == "all" {
		return consistency.Models, nil
	}
	var models []consistency.Model
	for _, n := range strings.Split(name, ",") {
		m, err := consistency.ParseModel(strings.TrimSpace(n))
		if err != nil {
			return nil, err
		}
		models = append(models, m)
	}
	return models, nil
}

func printReport(r *litmus.Report) {
	verdict := "PASS"
	if !r.OK() {
		verdict = "FAIL"
	}
	if r.Interrupted {
		verdict = "PART"
	}
	allowed := make(map[string]bool, len(r.Allowed))
	for _, k := range r.Allowed {
		allowed[k] = true
	}
	covered := 0
	for k := range r.Witnessed {
		if allowed[k] {
			covered++
		}
	}
	fmt.Printf("%-4s %-10s %-5s %d runs, witnessed %d/%d allowed outcomes\n",
		verdict, r.Test, r.Model, r.Runs, covered, len(r.Allowed))
	for _, k := range r.WitnessedKeys() {
		fmt.Printf("       %6d  %s\n", r.Witnessed[k], k)
	}
	for _, miss := range r.Unwitnessed() {
		fmt.Printf("       unseen  %s\n", miss)
	}
	for _, v := range r.Violations {
		fmt.Printf("  FORBIDDEN %q  seed=%d  %s\n", v.Outcome, v.Seed, v.Config)
	}
}

func fatal(err error) {
	fmt.Fprintln(os.Stderr, "litmus:", err)
	os.Exit(1)
}
