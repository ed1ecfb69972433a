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
	"encoding/json"
	"errors"
	"flag"
	"fmt"
	"io"
	"os"
	"strings"
	"time"

	"repro/internal/buildinfo"
	"repro/internal/core"
	"repro/internal/coverage"
	"repro/internal/duv"
	_ "repro/internal/duv/ifu"
	_ "repro/internal/duv/iounit"
	_ "repro/internal/duv/l3cache"
	_ "repro/internal/duv/noc"
	"repro/internal/failpoint"
	"repro/internal/farm"
	"repro/internal/obs"
	"repro/internal/opt"
	"repro/internal/profiling"
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
	decay := fs.Float64("decay", 1.0, "approximated-target distance decay in (0,1]; 1 = plain family sum")
	rounds := fs.Int("rounds", 1, "refinement rounds")
	seed := fs.Uint64("seed", 1, "run seed")
	corpus := fs.Int("corpus", 2000, "simulations per base template for the Before-CDG corpus")
	samples := fs.Int("samples", 50, "random-sample phase: number of templates (n)")
	sampleSims := fs.Int("sample-sims", 100, "random-sample phase: sims per template (N)")
	iterations := fs.Int("iterations", 10, "optimizer iterations")
	directions := fs.Int("directions", 10, "optimizer directions per iteration (n)")
	optSims := fs.Int("opt-sims", 100, "optimizer sims per point (N)")
	engine := fs.String("engine", "", "optimization engine: "+strings.Join(opt.EngineNames(), ", ")+" (default implicit_filtering)")
	engineParams := fs.String("engine-params", "", `engine-specific knobs as JSON, e.g. '{"candidates": 256}'`)
	bestSims := fs.Int("best-sims", 2000, "standalone sims of the harvested template")
	out := fs.String("out", "", "write the harvested test-template to this file")
	journalPath := fs.String("journal", "", "checkpoint the run into this crash-safe journal file")
	resume := fs.Bool("resume", false, "recover the -journal file and re-enter the interrupted run (use the same flags)")
	loadRepo := fs.String("load-repo", "", "load the Before-CDG corpus from this JSON file instead of simulating")
	saveRepo := fs.String("save-repo", "", "save the (possibly updated) coverage repository to this JSON file")
	workers := fs.Int("workers", 0, "simulation worker goroutines (<= 0: GOMAXPROCS)")
	farmAddrs := fs.String("farm", "", "comma-separated farmd worker addresses (host:port,host:port); chunks are dispatched remotely with local fallback")
	farmRetry := fs.String("farm-retry", "", "farm retry/backoff tuning: base=50ms,cap=2s,attempts=3,jitter=0.25 (keys optional)")
	hedge := fs.Float64("hedge", 0, "hedge straggling farm chunks after this multiple of the fleet p95 latency (0 disables)")
	auditFraction := fs.Float64("audit-fraction", 0, "re-execute this fraction of remote chunk results locally and cross-check them (0 disables, 1 audits everything)")
	failpoints := fs.String("failpoints", os.Getenv("ASCDG_FAILPOINTS"), "arm fault-injection points: name=policy[:rate[:times]],... (policies: error, delay(d), corrupt, drop, panic; seed=N reseeds)")
	cpuProfile := fs.String("cpuprofile", "", "write a CPU profile of the run to this file")
	memProfile := fs.String("memprofile", "", "write a heap profile at exit to this file")
	trace := fs.String("trace", "", "write a Chrome trace-event JSON of the run to this file (view in Perfetto)")
	progress := fs.Bool("progress", false, "stream JSONL progress events (phases, optimizer iterations) to stderr")
	metrics := fs.Bool("metrics", false, "print a final metrics summary to stderr")
	debugAddr := fs.String("debug-addr", "", "serve /debug/vars, /debug/metrics and /debug/pprof on this address during the run")
	version := fs.Bool("version", false, "print version information and exit")
	if err := fs.Parse(args); err != nil {
		return 2
	}
	if *version {
		fmt.Fprintln(stdout, buildinfo.String("ascdg"))
		return 0
	}
	if *unitName == "" {
		fmt.Fprintln(stderr, "ascdg: -unit is required")
		return 2
	}
	if (*family == "") == (*cross == "") {
		fmt.Fprintln(stderr, "ascdg: exactly one of -family or -cross is required")
		return 2
	}
	if *resume && *journalPath == "" {
		fmt.Fprintln(stderr, "ascdg: -resume requires -journal")
		return 2
	}
	if err := failpoint.Configure(*failpoints); err != nil {
		fmt.Fprintf(stderr, "ascdg: %v\n", err)
		return 2
	}
	if err := opt.Validate(*engine, json.RawMessage(*engineParams)); err != nil {
		fmt.Fprintf(stderr, "ascdg: %v\n", err)
		return 2
	}
	unit, err := duv.New(*unitName)
	if err != nil {
		fmt.Fprintf(stderr, "ascdg: %v\n", err)
		return 1
	}
	stopProfiles, err := profiling.Start(*cpuProfile, *memProfile)
	if err != nil {
		fmt.Fprintf(stderr, "ascdg: %v\n", err)
		return 1
	}
	defer func() {
		if err := stopProfiles(); err != nil {
			fmt.Fprintf(stderr, "ascdg: %v\n", err)
		}
	}()

	var progressW io.Writer
	if *progress {
		progressW = stderr
	}
	sess, err := obs.StartSession(obs.Config{
		TracePath:   *trace,
		ProgressW:   progressW,
		MetricsDump: *metrics,
		DebugAddr:   *debugAddr,
	}, stderr)
	if err != nil {
		fmt.Fprintf(stderr, "ascdg: %v\n", err)
		return 1
	}
	defer func() {
		if err := sess.Close(); err != nil {
			fmt.Fprintf(stderr, "ascdg: %v\n", err)
		}
	}()

	cfg := core.Config{
		Seed:                  *seed,
		CorpusSimsPerTemplate: *corpus,
		SampleTemplates:       *samples,
		SampleSims:            *sampleSims,
		OptIterations:         *iterations,
		OptDirections:         *directions,
		OptSims:               *optSims,
		BestSims:              *bestSims,
		Workers:               *workers,
		Obs:                   sess.Recorder(),
		Engine:                *engine,
	}
	if *engineParams != "" {
		cfg.EngineParams = json.RawMessage(*engineParams)
	}
	if *farmAddrs != "" {
		fopts := farm.Options{Rec: sess.Recorder(), Hedge: *hedge, AuditFraction: *auditFraction}
		if err := fopts.ApplyRetrySpec(*farmRetry); err != nil {
			fmt.Fprintf(stderr, "ascdg: %v\n", err)
			return 2
		}
		d := farm.New(strings.Split(*farmAddrs, ","), fopts)
		defer d.Close()
		if err := d.WaitReady(5 * time.Second); err != nil {
			fmt.Fprintf(stderr, "ascdg: farm: no worker reachable yet (%v); continuing, chunks fall back to local execution\n", err)
		}
		cfg.Runner = d
		cfg.RunnerLanes = d.Lanes()
	}
	if *loadRepo != "" {
		repo, err := coverage.LoadFile(*loadRepo, unit.Model())
		if err != nil {
			fmt.Fprintf(stderr, "ascdg: %v\n", err)
			return 1
		}
		cfg.Repository = repo
	}
	if *journalPath != "" {
		// An explicit fresh start (-journal without -resume) must not
		// silently replay a stale journal; -resume must have one to
		// replay. core.New resumes any existing journal file.
		_, statErr := os.Stat(*journalPath)
		if *resume && statErr != nil {
			fmt.Fprintf(stderr, "ascdg: -resume: no journal at %s\n", *journalPath)
			return 1
		}
		if !*resume && statErr == nil {
			if err := os.Remove(*journalPath); err != nil {
				fmt.Fprintf(stderr, "ascdg: %v\n", err)
				return 1
			}
		}
		cfg.Journal = *journalPath
	}
	flow, err := core.New(unit, cfg)
	if err != nil {
		fmt.Fprintf(stderr, "ascdg: %v\n", err)
		return 1
	}
	defer flow.Close()
	ctx, stopSignals := sigctx.Notify(context.Background(), stderr)
	defer stopSignals()

	var reports []*core.Report
	if *family != "" {
		reports, err = flow.RunFamilyRefined(ctx, *family, *decay, *rounds)
	} else {
		var r *core.Report
		r, err = flow.RunCross(ctx, *cross)
		reports = append(reports, r)
	}
	if errors.Is(err, core.ErrInterrupted) {
		fmt.Fprintln(stderr, "ascdg: interrupted")
		if *journalPath != "" {
			fmt.Fprintf(stderr, "ascdg: run checkpointed; continue with: ascdg -resume -journal %s (plus the same flags)\n", *journalPath)
		}
		return 0
	}
	if err != nil {
		fmt.Fprintf(stderr, "ascdg: %v\n", err)
		return 1
	}

	m := unit.Model()
	for i, report := range reports {
		fmt.Fprintf(stdout, "---- round %d ----\n", i+1)
		fmt.Fprint(stdout, report.Summary(m))
		if *family != "" {
			table, err := report.FormatFamilyTable(m, *family)
			if err != nil {
				fmt.Fprintf(stderr, "ascdg: %v\n", err)
				return 1
			}
			fmt.Fprintln(stdout, table)
		} else {
			cp, _ := m.Cross(*cross)
			ids, err := m.IDs(cp.EventNames())
			if err != nil {
				fmt.Fprintf(stderr, "ascdg: %v\n", err)
				return 1
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
			fmt.Fprintf(stderr, "ascdg: %v\n", err)
			return 1
		}
		fmt.Fprintf(stdout, "written to %s\n", *out)
	}
	if *saveRepo != "" {
		if err := flow.Repository().SaveFile(*saveRepo); err != nil {
			fmt.Fprintf(stderr, "ascdg: %v\n", err)
			return 1
		}
		fmt.Fprintf(stdout, "repository saved to %s (%d sims)\n", *saveRepo, flow.Repository().Sims())
	}
	return 0
}
