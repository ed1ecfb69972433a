// Command tacquery answers Template-Aware Coverage queries against a
// coverage repository: per-event statistics, uncovered/lightly-hit event
// lists, the best-templates query the AS-CDG coarse-grained search uses,
// and the regression-suite queries over the same per-template
// statistics: a minimal covering subset (greedy set cover) and a
// simulation-budget policy, optionally focused on lightly-hit events
// (the policy of the TAC line of work the paper builds on, ref [3]).
//
// The repository is either built on the fly by simulating a built-in
// unit's base regression suite (-unit/-sims) or loaded from a JSON file
// previously written with -save (or ascdg -save-repo). A run answers one
// query; a flag that would pick or shape another is refused.
//
// Usage:
//
//	tacquery -unit l3cache -sims 1000 [-save repo.json] [-events byp_reqs04,byp_reqs05] [-best 3]
//	tacquery -unit l3cache -load repo.json -uncovered
//	tacquery -unit l3cache -sims 1000 -minimize [-policy 20000 [-focus-lightly]]
package main

import (
	"context"
	"errors"
	"flag"
	"fmt"
	"io"
	"os"
	"slices"
	"sort"
	"strings"

	"repro/internal/cli"
	"repro/internal/coverage"
	"repro/internal/duv"
	_ "repro/internal/duv/ifu"
	_ "repro/internal/duv/iounit"
	_ "repro/internal/duv/l3cache"
	_ "repro/internal/duv/noc"
	"repro/internal/sigctx"
	statlib "repro/internal/stats"
	"repro/internal/tac"
)

func main() {
	os.Exit(run(os.Args[1:], os.Stdout, os.Stderr))
}

func run(args []string, stdout, stderr io.Writer) int {
	fs := flag.NewFlagSet("tacquery", flag.ContinueOnError)
	fs.SetOutput(stderr)
	save := fs.String("save", "", "save the repository to this JSON file")
	events := fs.String("events", "", "comma-separated event names to report on (default: all)")
	best := fs.Int("best", 0, "report the n best templates for the given events")
	uncovered := fs.Bool("uncovered", false, "list never-hit events")
	lightly := fs.Bool("lightly", false, "list lightly-hit events")
	ci := fs.Bool("ci", false, "report 95% Wilson confidence intervals for hit rates")
	minimize := fs.Bool("minimize", false, "print a minimal covering subset of the templates")
	policy := fs.Int("policy", 0, "allocate this many simulations across the templates")
	focusLightly := fs.Bool("focus-lightly", false, "policy: weight lightly-hit events 10x")
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
	switch {
	case *best < 0:
		return cli.Fail(fs, 2, fmt.Errorf("-best %d: want at least 0 (0 skips the query)", *best))
	case *best > 0 && *events == "":
		return cli.Fail(fs, 2, errors.New("-best requires -events"))
	case *policy < 0:
		return cli.Fail(fs, 2, fmt.Errorf("-policy %d: want at least 0 (0 skips the policy)", *policy))
	case *focusLightly && *policy == 0:
		return cli.Fail(fs, 2, errors.New("-focus-lightly requires -policy"))
	}
	if code := oneQuery(fs, map[string]bool{
		"-uncovered": *uncovered, "-lightly": *lightly, "-best": *best > 0,
		"-minimize": *minimize, "-policy": *policy > 0, "-events": *events != "", "-ci": *ci,
	}); code != 0 {
		return code
	}
	unit, err := duv.New(corpus.Unit)
	if err != nil {
		return cli.Fail(fs, 1, err)
	}
	if code := cli.CheckOutput(fs, "save", *save); code != 0 {
		return code
	}
	m := unit.Model()
	var ids []int
	if *events != "" {
		if ids, err = m.IDs(strings.Split(*events, ",")); err != nil {
			return cli.Fail(fs, 1, err)
		}
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
	if *save != "" {
		if err := repo.SaveFile(*save); err != nil {
			return cli.Fail(fs, 1, err)
		}
		fmt.Fprintf(stdout, "repository saved to %s (%d sims)\n", *save, repo.Sims())
	}

	stats := tac.New(repo)

	switch {
	case *uncovered:
		for _, id := range repo.Uncovered() {
			fmt.Fprintln(stdout, m.Name(id))
		}
	case *lightly:
		for _, id := range repo.LightlyHit() {
			fmt.Fprintln(stdout, m.Name(id))
		}
	case *best > 0:
		scores, err := stats.BestTemplates(ids, nil, *best)
		if err != nil {
			return cli.Fail(fs, 1, err)
		}
		fmt.Fprintf(stdout, "%-24s %10s %10s\n", "template", "score", "sims")
		for _, s := range scores {
			fmt.Fprintf(stdout, "%-24s %10.4f %10d\n", s.Name, s.Score, s.Sims)
		}
	case *minimize || *policy > 0:
		if *minimize {
			picked := stats.Minimize()
			fmt.Fprintf(stdout, "minimal covering suite: %d of %d templates\n", len(picked), len(repo.TemplateNames()))
			for _, name := range picked {
				fmt.Fprintf(stdout, "  %s\n", name)
			}
		}
		if *policy > 0 {
			var focus map[int]float64
			if *focusLightly {
				focus = map[int]float64{}
				total := repo.Total()
				for id := 0; id < m.Size(); id++ {
					switch total.Status(id) {
					case coverage.StatusLightly:
						focus[id] = 10
					case coverage.StatusWell:
						focus[id] = 1
					}
				}
			}
			alloc := stats.Policy(*policy, focus)
			names := make([]string, 0, len(alloc))
			for n := range alloc {
				names = append(names, n)
			}
			sort.Strings(names)
			sort.SliceStable(names, func(i, j int) bool { return alloc[names[i]] > alloc[names[j]] })
			fmt.Fprintf(stdout, "policy for %d simulations:\n", *policy)
			for _, name := range names {
				fmt.Fprintf(stdout, "  %-28s %8d sims\n", name, alloc[name])
			}
		}
	default:
		rows := stats.Report(ids)
		header := fmt.Sprintf("%-24s %10s %10s %-8s %-24s %8s",
			"event", "hits", "rate", "status", "best template", "P(hit)")
		if *ci {
			header += "  95% CI"
		}
		fmt.Fprintln(stdout, header)
		sims := repo.Sims()
		for _, r := range rows {
			line := fmt.Sprintf("%-24s %10d %9.3f%% %-8s %-24s %7.3f%%",
				r.Name, r.Hits, r.Rate*100, r.Status, r.BestTpl, r.BestP*100)
			if *ci {
				line += "  " + statlib.Wilson(r.Hits, sims).String()
			}
			fmt.Fprintln(stdout, line)
		}
	}
	return 0
}

// queryFlags are the flags that pick a query, in precedence order; with
// none set, the run prints the per-event report.
var queryFlags = []string{"-uncovered", "-lightly", "-best", "-minimize", "-policy"}

// reads names the other flags each query reads.
var reads = map[string][]string{"": {"-events", "-ci"}, "-best": {"-events"}, "-minimize": {"-policy"}}

// oneQuery refuses, with exit 2, a set flag that the run's query would not
// read: tacquery answers one query per run and does not print one thing
// while a flag asks for another.
func oneQuery(fs *flag.FlagSet, set map[string]bool) int {
	query := ""
	for _, f := range queryFlags {
		if set[f] {
			query = f
			break
		}
	}
	for _, f := range slices.Concat(queryFlags, []string{"-events", "-ci"}) {
		if set[f] && f != query && !slices.Contains(reads[query], f) {
			return cli.Fail(fs, 2, fmt.Errorf("%s changes nothing beside %s (one query per run)", f, query))
		}
	}
	return 0
}
