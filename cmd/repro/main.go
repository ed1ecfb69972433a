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
	"encoding/json"
	"errors"
	"flag"
	"fmt"
	"io"
	"os"
	"path/filepath"
	"strings"
	"time"

	"repro/internal/buildinfo"
	"repro/internal/core"
	"repro/internal/failpoint"
	"repro/internal/farm"
	"repro/internal/figures"
	"repro/internal/obs"
	"repro/internal/opt"
	"repro/internal/profiling"
	"repro/internal/sigctx"
)

func main() {
	fig := flag.String("fig", "all", "figure to regenerate: 3, 4, 5, 6 or all")
	scale := flag.Float64("scale", 0.1, "budget scale (1.0 = paper-scale simulation counts)")
	seed := flag.Uint64("seed", 1, "random seed for the whole run")
	rounds := flag.Int("rounds", 5, "max refinement rounds for family experiments")
	engine := flag.String("engine", "", "optimization engine for every figure flow: "+strings.Join(opt.EngineNames(), ", ")+" (default implicit_filtering)")
	engineParams := flag.String("engine-params", "", `engine-specific knobs as JSON, e.g. '{"candidates": 256}'`)
	csvDir := flag.String("csv", "", "also write each figure's series as <dir>/figN.csv")
	workers := flag.Int("workers", 0, "simulation worker goroutines (<= 0: GOMAXPROCS)")
	farmAddrs := flag.String("farm", "", "comma-separated farmd worker addresses (host:port,host:port); chunks are dispatched remotely with local fallback")
	farmRetry := flag.String("farm-retry", "", "farm retry/backoff tuning: base=50ms,cap=2s,attempts=3,jitter=0.25 (keys optional)")
	hedge := flag.Float64("hedge", 0, "hedge straggling farm chunks after this multiple of the fleet p95 latency (0 disables)")
	auditFraction := flag.Float64("audit-fraction", 0, "re-execute this fraction of remote chunk results locally and cross-check them (0 disables, 1 audits everything)")
	failpoints := flag.String("failpoints", os.Getenv("ASCDG_FAILPOINTS"), "arm fault-injection points: name=policy[:rate[:times]],... (policies: error, delay(d), corrupt, drop, panic; seed=N reseeds)")
	cpuProfile := flag.String("cpuprofile", "", "write a CPU profile of the run to this file")
	memProfile := flag.String("memprofile", "", "write a heap profile at exit to this file")
	trace := flag.String("trace", "", "write a Chrome trace-event JSON of the run to this file (view in Perfetto)")
	progress := flag.Bool("progress", false, "stream JSONL progress events (phases, optimizer iterations) to stderr")
	metrics := flag.Bool("metrics", false, "print a final metrics summary to stderr")
	debugAddr := flag.String("debug-addr", "", "serve /debug/vars, /debug/metrics and /debug/pprof on this address during the run")
	journalDir := flag.String("journal", "", "checkpoint each figure's flow into <dir>/figN.journal (crash-safe)")
	resume := flag.Bool("resume", false, "recover the journals in the -journal directory and re-enter the interrupted run")
	version := flag.Bool("version", false, "print version information and exit")
	flag.Parse()
	if *version {
		fmt.Println(buildinfo.String("repro"))
		return
	}
	if *resume && *journalDir == "" {
		fmt.Fprintln(os.Stderr, "repro: -resume requires -journal")
		os.Exit(2)
	}
	if err := failpoint.Configure(*failpoints); err != nil {
		fmt.Fprintf(os.Stderr, "repro: %v\n", err)
		os.Exit(2)
	}
	if err := opt.Validate(*engine, json.RawMessage(*engineParams)); err != nil {
		fmt.Fprintf(os.Stderr, "repro: %v\n", err)
		os.Exit(2)
	}
	// Created before any figure runs: a -csv path that cannot be written
	// fails now, not after every simulation has been paid for.
	if *csvDir != "" {
		if err := os.MkdirAll(*csvDir, 0o755); err != nil {
			fmt.Fprintf(os.Stderr, "repro: %v\n", err)
			os.Exit(1)
		}
	}

	stopProfiles, err := profiling.Start(*cpuProfile, *memProfile)
	if err != nil {
		fmt.Fprintf(os.Stderr, "repro: %v\n", err)
		os.Exit(1)
	}
	defer func() {
		if err := stopProfiles(); err != nil {
			fmt.Fprintf(os.Stderr, "repro: %v\n", err)
		}
	}()

	var progressW io.Writer
	if *progress {
		progressW = os.Stderr
	}
	sess, err := obs.StartSession(obs.Config{
		TracePath:   *trace,
		ProgressW:   progressW,
		MetricsDump: *metrics,
		DebugAddr:   *debugAddr,
	}, os.Stderr)
	if err != nil {
		fmt.Fprintf(os.Stderr, "repro: %v\n", err)
		os.Exit(1)
	}
	defer func() {
		if err := sess.Close(); err != nil {
			fmt.Fprintf(os.Stderr, "repro: %v\n", err)
		}
	}()

	ctx, stopSignals := sigctx.Notify(context.Background(), os.Stderr)
	defer stopSignals()
	opts := figures.Options{
		Scale: *scale, Seed: *seed, Rounds: *rounds, Workers: *workers,
		Obs: sess.Recorder(), Ctx: ctx, JournalDir: *journalDir, Resume: *resume,
		Engine: *engine,
	}
	if *engineParams != "" {
		opts.EngineParams = json.RawMessage(*engineParams)
	}
	if *farmAddrs != "" {
		fopts := farm.Options{Rec: sess.Recorder(), Hedge: *hedge, AuditFraction: *auditFraction}
		if err := fopts.ApplyRetrySpec(*farmRetry); err != nil {
			fmt.Fprintf(os.Stderr, "repro: %v\n", err)
			os.Exit(2)
		}
		d := farm.New(strings.Split(*farmAddrs, ","), fopts)
		defer d.Close()
		if err := d.WaitReady(5 * time.Second); err != nil {
			fmt.Fprintf(os.Stderr, "repro: farm: no worker reachable yet (%v); continuing, chunks fall back to local execution\n", err)
		}
		opts.Runner = d
		opts.RunnerLanes = d.Lanes()
	}

	var results []*figures.Result
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
		fmt.Fprintf(os.Stderr, "repro: unknown figure %q (want 3, 4, 5, 6 or all)\n", *fig)
		os.Exit(2)
	}
	if errors.Is(err, core.ErrInterrupted) {
		fmt.Fprintln(os.Stderr, "repro: interrupted")
		if *journalDir != "" {
			fmt.Fprintf(os.Stderr, "repro: run checkpointed; continue with: repro -resume -journal %s (plus the same flags)\n", *journalDir)
		}
		stopSignals()
		os.Exit(0)
	}
	if err != nil {
		fmt.Fprintf(os.Stderr, "repro: %v\n", err)
		os.Exit(1)
	}
	for _, r := range results {
		fmt.Printf("==== %s ====\n", r.Title)
		fmt.Println(r.Text)
		if r.Sims > 0 {
			fmt.Printf("total simulations: %d\n", r.Sims)
		}
		fmt.Println()
		if *csvDir != "" && r.CSV != "" {
			path := filepath.Join(*csvDir, r.Name+".csv")
			if err := os.WriteFile(path, []byte(r.CSV), 0o644); err != nil {
				fmt.Fprintf(os.Stderr, "repro: writing %s: %v\n", path, err)
				os.Exit(1)
			}
			fmt.Printf("series written to %s\n\n", path)
		}
	}
}
