// compare synthesizes distinguishing litmus witnesses between memory
// consistency models and prints the zoo's strictness lattice.
//
// The comparator enumerates every canonical litmus-shaped program
// within a budget, computes each model's allowed outcome set with the
// spec-derived ordering engine, and reports, for every ordered pair
// of behavioral classes, a minimal program plus outcome that one
// class admits and the other forbids. Witnesses are then replayed on
// the simulated hardware: the outcome must show up under the weaker
// model and never under the stronger one, and everything either
// machine produces must stay inside its engine-allowed set.
//
// Usage:
//
//	compare                          # full zoo, engine-only lattice
//	compare -verify                  # plus hardware replay (1000 runs/side)
//	compare -models SC1,TSO,PSO      # restrict the model set
//	compare -ops 6 -threads 3        # widen the search budget
//	compare -witness-dir wit/        # dump replayable witness files
//	compare -replay wit/TSO-not-SC1.json
//	compare -json                    # machine-readable result
//
// Exit status is nonzero on error, or when -verify finds a witness
// outcome on the model that must forbid it (an engine soundness bug).
package main

import (
	"context"
	"encoding/json"
	"flag"
	"fmt"
	"os"
	"os/signal"
	"strings"
	"syscall"

	"memsim/internal/compare"
	"memsim/internal/consistency"
	"memsim/internal/litmus"
)

func main() {
	var (
		modelsF = flag.String("models", "all",
			fmt.Sprintf("comma-separated models (%s), or all", strings.Join(consistency.ModelNames(), ",")))
		ops     = flag.Int("ops", 5, "max total operations per program")
		threads = flag.Int("threads", 2, "max threads per program")
		locs    = flag.Int("locs", 2, "max distinct locations per program")
		fences  = flag.Bool("fences", true, "include fences in the search alphabet")
		ann     = flag.Bool("ann", true, "include acquire/release annotations")
		verify  = flag.Bool("verify", false, "replay witnesses on the simulated hardware")
		runs    = flag.Int("verify-runs", 1000, "perturbed hardware runs per side per witness")
		seed    = flag.Int64("seed", 1, "base seed for hardware replay")
		witDir  = flag.String("witness-dir", "", "write one replayable witness JSON per separated pair into this directory")
		replayF = flag.String("replay", "", "replay a single witness file and exit")
		jsonF   = flag.Bool("json", false, "emit the full result as JSON")
	)
	flag.Parse()

	ctx, stop := signal.NotifyContext(context.Background(), syscall.SIGINT, syscall.SIGTERM)
	defer stop()

	if *replayF != "" {
		if err := replay(ctx, *replayF, *runs, *seed); err != nil {
			fatal(err)
		}
		return
	}

	models, err := selectModels(*modelsF)
	if err != nil {
		fatal(err)
	}
	budget := compare.Budget{
		MaxOps: *ops, MaxThreads: *threads, MaxLocs: *locs,
		Fences: *fences, Annotations: *ann,
	}
	res, err := compare.Compare(models, budget)
	if err != nil {
		fatal(err)
	}
	if *verify {
		if err := res.Verify(ctx, compare.VerifyConfig{Runs: *runs, Seed: *seed}); err != nil {
			fatal(err)
		}
	}
	if *witDir != "" {
		n, err := res.WriteWitnesses(*witDir)
		if err != nil {
			fatal(err)
		}
		fmt.Fprintf(os.Stderr, "compare: wrote %d witness files to %s\n", n, *witDir)
	}
	if *jsonF {
		enc := json.NewEncoder(os.Stdout)
		enc.SetIndent("", "  ")
		if err := enc.Encode(res); err != nil {
			fatal(err)
		}
		return
	}
	printResult(res, *verify)
	if unsound(res) {
		fmt.Fprintln(os.Stderr, "compare: hardware produced an outcome its model's engine forbids")
		os.Exit(1)
	}
}

func selectModels(s string) ([]consistency.Model, error) {
	if s == "all" {
		return consistency.Models, nil
	}
	var models []consistency.Model
	for _, n := range strings.Split(s, ",") {
		m, err := consistency.ParseModel(strings.TrimSpace(n))
		if err != nil {
			return nil, err
		}
		models = append(models, m)
	}
	return models, nil
}

func replay(ctx context.Context, path string, runs int, seed int64) error {
	w, err := compare.LoadWitness(path)
	if err != nil {
		return err
	}
	fmt.Printf("witness %s \\ %s: %s\n", w.Weak, w.Strong, litmus.FormatProgram(w.Threads))
	fmt.Printf("  outcome %s\n", w.Outcome)
	v, err := compare.Replay(ctx, w, compare.VerifyConfig{Runs: runs, Seed: seed})
	if err != nil {
		return err
	}
	printVerification(v)
	if v.StrongViolations > 0 || !v.WeakConformant || !v.StrongConformant {
		return fmt.Errorf("replay failed: strong-side violations=%d weak-conformant=%t strong-conformant=%t",
			v.StrongViolations, v.WeakConformant, v.StrongConformant)
	}
	return nil
}

func printResult(r *compare.Result, verified bool) {
	fmt.Printf("searched %d canonical programs (ops<=%d threads<=%d locs<=%d fences=%t ann=%t)\n",
		r.Programs, r.Budget.MaxOps, r.Budget.MaxThreads, r.Budget.MaxLocs,
		r.Budget.Fences, r.Budget.Annotations)
	fmt.Println("\nbehavioral classes:")
	for _, c := range r.Classes {
		fmt.Printf("  %-5s {%s}  relaxes: %s\n", c.Name, strings.Join(c.Models, ", "), orNone(c.Sig))
	}

	fmt.Println("\nstrictness lattice (stronger -> weaker):")
	for _, e := range r.HasseEdges() {
		fmt.Printf("  %s -> %s\n", e[0], e[1])
	}
	var incomparable [][2]string
	for i, a := range r.Classes {
		for _, b := range r.Classes[i+1:] {
			if r.Relation(a.Name, b.Name) == "incomparable" {
				incomparable = append(incomparable, [2]string{a.Name, b.Name})
			}
		}
	}
	if len(incomparable) > 0 {
		fmt.Println("incomparable:")
		for _, p := range incomparable {
			fmt.Printf("  %s >< %s\n", p[0], p[1])
		}
	}

	fmt.Println("\nwitnesses (outcome allowed on weak, forbidden on strong):")
	for _, p := range r.Pairs {
		if !p.Separated {
			continue
		}
		w := p.Witness
		fmt.Printf("  %s \\ %s  (%d ops)\n    %s\n    outcome: %s\n",
			p.Weak, p.Strong, w.Ops, litmus.FormatProgram(w.Threads), w.Outcome)
		if w.Verification != nil {
			printVerification(w.Verification)
		}
	}
	if !verified {
		fmt.Println("\n(engine-only lattice; rerun with -verify to replay witnesses on the hardware)")
	}
}

func printVerification(v *compare.Verification) {
	status := "VERIFIED"
	if !v.Verified {
		status = "UNVERIFIED"
	}
	fmt.Printf("    %s: %s hits %d/%d (first seed %d); %s violations %d/%d; conformant weak=%t strong=%t\n",
		status, v.WeakModel, v.WeakHits, v.Runs, v.WeakHitSeed,
		v.StrongModel, v.StrongViolations, v.Runs, v.WeakConformant, v.StrongConformant)
	if !v.Verified && v.WeakHits == 0 && v.StrongViolations == 0 {
		fmt.Printf("    (architecturally separated; the %s hardware did not open the timing window in %d runs)\n",
			v.WeakModel, v.Runs)
	}
}

// unsound reports whether any verification saw hardware escape its
// engine-allowed set or the strong model exhibit the witness.
func unsound(r *compare.Result) bool {
	for _, p := range r.Pairs {
		for _, w := range p.Candidates {
			if v := w.Verification; v != nil &&
				(v.StrongViolations > 0 || !v.WeakConformant || !v.StrongConformant) {
				return true
			}
		}
	}
	return false
}

func orNone(s string) string {
	if s == "SC" {
		return "nothing (sequentially consistent)"
	}
	return s
}

func fatal(err error) {
	fmt.Fprintln(os.Stderr, "compare:", strings.TrimPrefix(err.Error(), "compare: "))
	os.Exit(1)
}
