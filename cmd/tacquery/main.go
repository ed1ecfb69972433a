// Command tacquery answers Template-Aware Coverage queries against a
// coverage repository: per-event statistics, uncovered/lightly-hit event
// lists, and the best-templates query the AS-CDG coarse-grained search
// uses.
//
// The repository is either built on the fly by simulating a built-in
// unit's base regression suite (-unit/-sims) or loaded from a JSON file
// previously written with -save.
//
// Usage:
//
//	tacquery -unit l3cache -sims 1000 [-save repo.json] [-events byp_reqs04,byp_reqs05] [-best 3]
//	tacquery -unit l3cache -load repo.json -uncovered
package main

import (
	"context"
	"errors"
	"flag"
	"fmt"
	"io"
	"os"
	"strings"

	"repro/internal/cli"
	"repro/internal/duv"
	_ "repro/internal/duv/ifu"
	_ "repro/internal/duv/iounit"
	_ "repro/internal/duv/l3cache"
	_ "repro/internal/duv/noc"
	"repro/internal/knowledge"
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
	knowledgeDir := fs.String("knowledge", "", "blend cross-campaign knowledge from this directory (a service data root's knowledge/ store) into -best scores")
	uncovered := fs.Bool("uncovered", false, "list never-hit events")
	lightly := fs.Bool("lightly", false, "list lightly-hit events")
	ci := fs.Bool("ci", false, "report 95% Wilson confidence intervals for hit rates")
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
	case *knowledgeDir != "" && *best == 0:
		return cli.Fail(fs, 2, errors.New("-knowledge requires -best"))
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
	var entries []knowledge.Entry
	if *knowledgeDir != "" {
		if entries, err = knowledge.Load(*knowledgeDir); err != nil {
			return cli.Fail(fs, 1, fmt.Errorf("-knowledge %s: %w", *knowledgeDir, err))
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
		// With a knowledge base, rank everything, blend the boosts in,
		// and only then truncate — a boost may promote a template past
		// the unblended cutoff.
		n := *best
		if *knowledgeDir != "" {
			n = 0
		}
		scores, err := stats.BestTemplates(ids, nil, n)
		if err != nil {
			return cli.Fail(fs, 1, err)
		}
		if *knowledgeDir != "" {
			scores = tac.Blend(scores, knowledge.TACBoosts(entries, corpus.Unit, knowledge.DefaultDamp))
			if len(scores) > *best {
				scores = scores[:*best]
			}
		}
		fmt.Fprintf(stdout, "%-24s %10s %10s\n", "template", "score", "sims")
		for _, s := range scores {
			fmt.Fprintf(stdout, "%-24s %10.4f %10d\n", s.Name, s.Score, s.Sims)
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
