// Command repro regenerates the paper's evaluation tables and figures
// (Figs. 3-6 of "Automatic Scalable System for the Coverage-Directed
// Generation (CDG) Problem", DATE 2021).
//
// Usage:
//
//	repro [-fig 3|4|5|6|all] [-scale 0.1] [-seed 1] [-rounds 5]
//
// -scale 1.0 runs the paper's full simulation budgets (669k-1M
// "before" simulations per unit); the default 0.1 keeps every ratio but
// divides the corpus and harvest budgets by ten.
package main

import (
	"context"
	"errors"
	"flag"
	"fmt"
	"io"
	"os"
	"path/filepath"

	"repro/internal/cli"
	"repro/internal/core"
	"repro/internal/figures"
	"repro/internal/sigctx"
)

func main() {
	os.Exit(run(os.Args[1:], os.Stdout, os.Stderr))
}

func run(args []string, stdout, stderr io.Writer) int {
	fs := flag.NewFlagSet("repro", flag.ContinueOnError)
	fs.SetOutput(stderr)
	fig := fs.String("fig", "all", "figure to regenerate: 3, 4, 5, 6 or all")
	scale := fs.Float64("scale", 0.1, "budget scale (1.0 = paper-scale simulation counts)")
	seed := fs.Uint64("seed", 1, "random seed for the whole run")
	rounds := fs.Int("rounds", 5, "max refinement rounds for family experiments")
	csvDir := fs.String("csv", "", "also write each figure's series as <dir>/figN.csv")
	var (
		workers   cli.Workers
		jnl       cli.Journal
		farmFlags cli.Farm
		profile   cli.Profile
		obsFlags  cli.Obs
		engine    cli.Engine
	)
	if code, done := cli.Parse(fs, args, stdout, &workers, &jnl, &farmFlags, &profile, &obsFlags, &engine); done {
		return code
	}
	// figures.Options defaults a zero seed, scale or round count; a value
	// given here is taken as given or refused. Seed 0 is a seed of its own
	// to core and ascdg, so running seed 1 in its place would count one
	// seed twice in a sweep.
	switch {
	case *seed == 0:
		return cli.Fail(fs, 2, errors.New("-seed 0: seeds start at 1"))
	case !(*scale > 0 && *scale <= figures.MaxScale):
		return cli.Fail(fs, 2, fmt.Errorf("-scale %v: want a positive number at most %g", *scale, float64(figures.MaxScale)))
	case *rounds < 1:
		return cli.Fail(fs, 2, fmt.Errorf("-rounds %d: want at least 1", *rounds))
	}
	if code := workers.Check(fs); code != 0 {
		return code
	}
	if code := jnl.Check(); code != 0 {
		return code
	}
	if code := engine.Check(); code != 0 {
		return code
	}
	// Created before any figure runs: a -csv path that cannot be written
	// fails now, not after every simulation has been paid for.
	if *csvDir != "" {
		if err := os.MkdirAll(*csvDir, 0o755); err != nil {
			return cli.Fail(fs, 1, err)
		}
	}
	stopProfiles, code := profile.Start()
	if code != 0 {
		return code
	}
	defer stopProfiles()
	rec, stopObs, code := obsFlags.Start(nil)
	if code != 0 {
		return code
	}
	defer stopObs()

	ctx, stopSignals := sigctx.Notify(context.Background(), stderr)
	defer stopSignals()
	opts := figures.Options{
		Scale: *scale, Seed: *seed, Rounds: *rounds, Workers: int(workers),
		Obs: rec, Ctx: ctx, JournalDir: jnl.Path, Resume: jnl.Resume,
		Engine: engine.Name,
	}
	d, code := farmFlags.Dial(rec, nil)
	if code != 0 {
		return code
	}
	if d != nil {
		defer d.Close()
		opts.Runner = d
		opts.RunnerLanes = d.Lanes()
	}

	var results []*figures.Result
	var err error
	switch *fig {
	case "3":
		var r *figures.Result
		r, err = figures.Fig3(opts)
		results = append(results, r)
	case "4":
		var r *figures.Result
		r, err = figures.Fig4(opts)
		results = append(results, r)
	case "5":
		var r *figures.Result
		r, err = figures.Fig5(opts)
		results = append(results, r)
	case "6":
		var r *figures.Result
		r, err = figures.Fig6(opts)
		results = append(results, r)
	case "all":
		results, err = figures.All(opts)
	default:
		fmt.Fprintf(stderr, "repro: unknown figure %q (want 3, 4, 5, 6 or all)\n", *fig)
		return 2
	}
	if errors.Is(err, core.ErrInterrupted) {
		jnl.Interrupted("run")
		return 0
	}
	if err != nil {
		return cli.Fail(fs, 1, err)
	}
	for _, r := range results {
		fmt.Fprintf(stdout, "==== %s ====\n", r.Title)
		fmt.Fprintln(stdout, r.Text)
		if r.Sims > 0 {
			fmt.Fprintf(stdout, "total simulations: %d\n", r.Sims)
		}
		fmt.Fprintln(stdout)
		if *csvDir != "" && r.CSV != "" {
			path := filepath.Join(*csvDir, r.Name+".csv")
			if err := os.WriteFile(path, []byte(r.CSV), 0o644); err != nil {
				fmt.Fprintf(stderr, "repro: writing %s: %v\n", path, err)
				return 1
			}
			fmt.Fprintf(stdout, "series written to %s\n\n", path)
		}
	}
	return 0
}
