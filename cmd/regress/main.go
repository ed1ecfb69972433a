// Command regress optimizes a regression suite using TAC statistics:
// minimize the suite while preserving coverage (greedy set cover), or
// allocate a simulation budget across templates to maximize expected
// coverage — optionally focused on lightly-hit events, the policy of
// the TAC line of work the paper builds on (ref [3]).
//
// Usage:
//
//	regress -unit l3cache -sims 1000 -minimize
//	regress -unit l3cache -sims 1000 -policy 20000 -focus-lightly
//	regress -unit l3cache -load repo.json -minimize
package main

import (
	"context"
	"errors"
	"flag"
	"fmt"
	"io"
	"os"
	"sort"

	"repro/internal/cli"
	"repro/internal/coverage"
	"repro/internal/duv"
	_ "repro/internal/duv/ifu"
	_ "repro/internal/duv/iounit"
	_ "repro/internal/duv/l3cache"
	_ "repro/internal/duv/noc"
	"repro/internal/regress"
	"repro/internal/sigctx"
	"repro/internal/template"
)

func main() {
	os.Exit(run(os.Args[1:], os.Stdout, os.Stderr))
}

func run(args []string, stdout, stderr io.Writer) int {
	fs := flag.NewFlagSet("regress", flag.ContinueOnError)
	fs.SetOutput(stderr)
	minimize := fs.Bool("minimize", false, "print a minimal covering subset of the suite")
	policy := fs.Int("policy", 0, "allocate this many simulations across the suite")
	focusLightly := fs.Bool("focus-lightly", false, "policy: weight lightly-hit events 10x")
	out := fs.String("out", "", "persist the harvested suite (templates + statistics) to this JSON file (atomic write)")
	var (
		corpus   cli.Corpus
		obsFlags cli.Obs
	)
	if code, done := cli.Parse(fs, args, stdout, &corpus, &obsFlags); done {
		return code
	}
	if code := corpus.Check(); code != 0 {
		return code
	}
	if *policy < 0 {
		return cli.Fail(fs, 2, fmt.Errorf("-policy %d: want at least 0 (0 skips the policy)", *policy))
	}
	if *focusLightly && *policy == 0 {
		return cli.Fail(fs, 2, errors.New("-focus-lightly requires -policy"))
	}
	if !*minimize && *policy <= 0 && *out == "" {
		fmt.Fprintln(stderr, "regress: one of -minimize, -policy or -out is required")
		return 2
	}
	if code := cli.CheckOutput(fs, "out", *out); code != 0 {
		return code
	}
	unit, err := duv.New(corpus.Unit)
	if err != nil {
		return cli.Fail(fs, 1, err)
	}

	rec, stopObs, code := obsFlags.Start(nil)
	if code != 0 {
		return code
	}
	defer stopObs()

	ctx, stopSignals := sigctx.Notify(context.Background(), stderr)
	defer stopSignals()

	repo, code := corpus.Build(ctx, unit, rec)
	if repo == nil {
		return code
	}
	bodies := map[string]*template.Template{}
	for _, t := range unit.BaseTemplates() {
		bodies[t.Name] = t
	}
	suite, err := regress.FromRepository(repo, bodies)
	if err != nil {
		return cli.Fail(fs, 1, err)
	}
	if *out != "" {
		if err := suite.SaveFile(*out); err != nil {
			return cli.Fail(fs, 1, err)
		}
		fmt.Fprintf(stdout, "suite saved to %s (%d templates)\n", *out, suite.Len())
	}

	if *minimize {
		picked := suite.Minimize()
		fmt.Fprintf(stdout, "minimal covering suite: %d of %d templates\n", len(picked), suite.Len())
		for _, name := range picked {
			fmt.Fprintf(stdout, "  %s\n", name)
		}
	}
	if *policy > 0 {
		var focus map[int]float64
		if *focusLightly {
			focus = map[int]float64{}
			total := repo.Total()
			for id := 0; id < unit.Model().Size(); id++ {
				switch total.Status(id) {
				case coverage.StatusLightly:
					focus[id] = 10
				case coverage.StatusWell:
					focus[id] = 1
				}
			}
		}
		alloc := suite.Policy(*policy, focus)
		names := make([]string, 0, len(alloc))
		for n := range alloc {
			names = append(names, n)
		}
		sort.Slice(names, func(i, j int) bool { return alloc[names[i]] > alloc[names[j]] })
		fmt.Fprintf(stdout, "policy for %d simulations:\n", *policy)
		for _, name := range names {
			fmt.Fprintf(stdout, "  %-28s %8d sims\n", name, alloc[name])
		}
	}
	return 0
}
