// Command ascdg runs the full AS-CDG flow against one of the built-in
// units: corpus build, approximated target, coarse-grained TAC search,
// skeletonization, random sampling, implicit-filtering optimization, and
// harvesting (paper Fig. 2).
//
// Usage:
//
//	ascdg -unit iounit -family crc_fifo [-rounds 3] [-decay 0.4] ...
//	ascdg -unit ifu -cross ifu
//
// The harvested best test-template is printed at the end and can be
// saved with -out.
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
	"repro/internal/core"
	"repro/internal/duv"
	_ "repro/internal/duv/ifu"
	_ "repro/internal/duv/iounit"
	_ "repro/internal/duv/l3cache"
	_ "repro/internal/duv/noc"
	"repro/internal/sigctx"
)

func main() {
	os.Exit(run(os.Args[1:], os.Stdout, os.Stderr))
}

func run(args []string, stdout, stderr io.Writer) int {
	fs := flag.NewFlagSet("ascdg", flag.ContinueOnError)
	fs.SetOutput(stderr)
	unitName := fs.String("unit", "", "built-in unit: "+strings.Join(duv.Names(), ", "))
	family := fs.String("family", "", "target event family (e.g. crc_fifo, byp_reqs)")
	cross := fs.String("cross", "", "target cross product (e.g. ifu)")
	decay := fs.Float64("decay", 1.0, "approximated-target distance decay in (0,1] of a -family target; 1 = plain family sum")
	rounds := fs.Int("rounds", 1, "refinement rounds")
	seed := fs.Uint64("seed", 1, "run seed")
	corpus := fs.Int("corpus", 2000, "simulations per base template for the Before-CDG corpus")
	samples := fs.Int("samples", 50, "random-sample phase: number of templates (n)")
	sampleSims := fs.Int("sample-sims", 100, "random-sample phase: sims per template (N)")
	iterations := fs.Int("iterations", 10, "optimizer iterations")
	directions := fs.Int("directions", 10, "optimizer directions per iteration (n)")
	optSims := fs.Int("opt-sims", 100, "optimizer sims per point (N)")
	bestSims := fs.Int("best-sims", 2000, "standalone sims of the harvested template")
	out := fs.String("out", "", "write the harvested test-template to this file")
	saveRepo := fs.String("save-repo", "", "save the (possibly updated) coverage repository to this JSON file")
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
	if *unitName == "" {
		fmt.Fprintln(stderr, "ascdg: -unit is required")
		return 2
	}
	if *rounds < 1 {
		return cli.Fail(fs, 2, fmt.Errorf("-rounds %d: want at least 1", *rounds))
	}
	if code := jnl.Check(); code != 0 {
		return code
	}
	if code := engine.Check(); code != 0 {
		return code
	}
	unit, err := duv.New(*unitName)
	if err != nil {
		return cli.Fail(fs, 1, err)
	}
	// -decay weighs a -family target. Given with -cross, Validate
	// refuses it rather than dropping it.
	explicitDecay := false
	fs.Visit(func(f *flag.Flag) { explicitDecay = explicitDecay || f.Name == "decay" })
	target := core.Target{Family: *family, Rounds: *rounds, Cross: *cross}
	if *family != "" || explicitDecay {
		target.Decay = *decay
	}
	if err := target.Validate(unit); err != nil {
		return cli.Fail(fs, 2, err)
	}
	cfg := core.Config{
		Seed:                  *seed,
		CorpusSimsPerTemplate: *corpus,
		SampleTemplates:       *samples,
		SampleSims:            *sampleSims,
		OptIterations:         *iterations,
		OptDirections:         *directions,
		OptSims:               *optSims,
		BestSims:              *bestSims,
		Workers:               int(workers),
		Engine:                engine.Name,
	}
	if err := cfg.Validate(); err != nil {
		return cli.Fail(fs, 2, err)
	}
	if code := cli.CheckOutput(fs, "out", *out); code != 0 {
		return code
	}
	if code := cli.CheckOutput(fs, "save-repo", *saveRepo); code != 0 {
		return code
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
	cfg.Obs = rec
	d, code := farmFlags.Dial(rec, nil)
	if code != 0 {
		return code
	}
	if d != nil {
		defer d.Close()
		cfg.Runner = d
		cfg.RunnerLanes = d.Lanes()
	}
	if code := jnl.Prepare(); code != 0 {
		return code
	}
	cfg.Journal = jnl.Path
	flow, err := core.New(unit, cfg)
	if err != nil {
		return cli.Fail(fs, 1, err)
	}
	defer flow.Close()
	ctx, stopSignals := sigctx.Notify(context.Background(), stderr)
	defer stopSignals()

	reports, err := flow.Run(ctx, target)
	if errors.Is(err, core.ErrInterrupted) {
		jnl.Interrupted()
		return 0
	}
	if err != nil {
		return cli.Fail(fs, 1, err)
	}

	m := unit.Model()
	for i, report := range reports {
		fmt.Fprintf(stdout, "---- round %d ----\n", i+1)
		fmt.Fprint(stdout, report.Summary(m))
		if *family != "" {
			table, err := report.FormatFamilyTable(m, *family)
			if err != nil {
				return cli.Fail(fs, 1, err)
			}
			fmt.Fprintln(stdout, table)
		} else {
			cp, _ := m.Cross(*cross)
			ids, err := m.IDs(cp.EventNames())
			if err != nil {
				return cli.Fail(fs, 1, err)
			}
			fmt.Fprintln(stdout, report.FormatStatusTable(m, ids))
		}
		fmt.Fprintln(stdout, report.FormatProgress())
	}

	final := reports[len(reports)-1]
	fmt.Fprintln(stdout, "harvested test-template:")
	fmt.Fprint(stdout, final.BestTemplate.String())
	if *out != "" {
		if err := os.WriteFile(*out, []byte(final.BestTemplate.String()), 0o644); err != nil {
			return cli.Fail(fs, 1, err)
		}
		fmt.Fprintf(stdout, "written to %s\n", *out)
	}
	if *saveRepo != "" {
		if err := flow.Repository().SaveFile(*saveRepo); err != nil {
			return cli.Fail(fs, 1, err)
		}
		fmt.Fprintf(stdout, "repository saved to %s (%d sims)\n", *saveRepo, flow.Repository().Sims())
	}
	return 0
}
