// Command farmd is the remote simulation worker daemon of the
// distributed farm. It listens for farm-protocol connections (see
// internal/farm), executes deterministic chunk requests against the
// built-in units, and streams aggregated coverage counts back. Because
// every chunk is seeded purely from (batch seed, instance index), a
// fleet of farmd processes produces bit-identical results to a purely
// local run.
//
// Usage:
//
//	farmd -listen :9666 [-capacity 8] [-plan-cache 64] [-drain 10s]
//
// SIGINT/SIGTERM drain gracefully: in-flight chunks finish and their
// results are delivered before the process exits; idle connections are
// severed immediately so dispatchers retry elsewhere.
package main

import (
	"flag"
	"fmt"
	"io"
	"net"
	"os"
	"os/signal"
	"syscall"
	"time"

	"repro/internal/buildinfo"
	_ "repro/internal/duv/ifu"
	_ "repro/internal/duv/iounit"
	_ "repro/internal/duv/l3cache"
	_ "repro/internal/duv/noc"
	"repro/internal/failpoint"
	"repro/internal/farm"
	"repro/internal/obs"
)

func main() {
	os.Exit(run(os.Args[1:], os.Stdout, os.Stderr))
}

func run(args []string, stdout, stderr io.Writer) int {
	fs := flag.NewFlagSet("farmd", flag.ContinueOnError)
	fs.SetOutput(stderr)
	listen := fs.String("listen", ":9666", "address to listen on for farm-protocol connections")
	capacity := fs.Int("capacity", 0, "concurrently executing chunks (<= 0: GOMAXPROCS); advertised to dispatchers")
	planCache := fs.Int("plan-cache", 0, "per-unit compiled-plan cache entries (0: unbounded)")
	drain := fs.Duration("drain", 10*time.Second, "graceful-shutdown budget for in-flight chunks")
	trace := fs.String("trace", "", "write a Chrome trace-event JSON of the run to this file (view in Perfetto)")
	progress := fs.Bool("progress", false, "stream JSONL progress events to stderr")
	metrics := fs.Bool("metrics", false, "print a final metrics summary to stderr")
	debugAddr := fs.String("debug-addr", "", "serve /debug/vars, /debug/metrics, /debug/pprof and the ops endpoints (/metrics, /healthz, /readyz) on this address while running")
	logLevel := fs.String("log-level", "info", "structured log level: debug, info, warn or error")
	logFormat := fs.String("log-format", "text", "structured log encoding: text or json")
	failpoints := fs.String("failpoints", os.Getenv("ASCDG_FAILPOINTS"), "arm fault-injection points, e.g. farm/serve_chunk=corrupt:0.1 (default $ASCDG_FAILPOINTS)")
	version := fs.Bool("version", false, "print version information and exit")
	if err := fs.Parse(args); err != nil {
		return 2
	}
	if *version {
		fmt.Fprintln(stdout, buildinfo.String("farmd"))
		return 0
	}
	if err := failpoint.Configure(*failpoints); err != nil {
		fmt.Fprintf(stderr, "farmd: %v\n", err)
		return 2
	}

	logger, err := obs.NewLogger(stderr, *logLevel, *logFormat)
	if err != nil {
		fmt.Fprintf(stderr, "farmd: %v\n", err)
		return 2
	}

	var progressW io.Writer
	if *progress {
		progressW = stderr
	}
	health := obs.NewHealth()
	sess, err := obs.StartSession(obs.Config{
		TracePath:   *trace,
		ProgressW:   progressW,
		MetricsDump: *metrics,
		DebugAddr:   *debugAddr,
		Health:      health,
	}, stderr)
	if err != nil {
		fmt.Fprintf(stderr, "farmd: %v\n", err)
		return 1
	}
	defer func() {
		if err := sess.Close(); err != nil {
			fmt.Fprintf(stderr, "farmd: %v\n", err)
		}
	}()

	ln, err := net.Listen("tcp", *listen)
	if err != nil {
		fmt.Fprintf(stderr, "farmd: %v\n", err)
		return 1
	}
	srv := farm.NewServer(farm.ServerOptions{
		Capacity:      *capacity,
		PlanCacheSize: *planCache,
		DrainTimeout:  *drain,
		Rec:           sess.Recorder(),
		Log:           logger,
	})
	// /readyz fails once the drain begins, so orchestrators stop routing
	// new sessions at a worker that is on its way out.
	health.Set("sessions", srv.Ready)

	// The drain handler is installed before the banner is printed, so
	// whoever waits for the banner may signal at once: until Notify
	// returns, SIGTERM still takes its default action and kills the
	// process undrained.
	sigc := make(chan os.Signal, 1)
	signal.Notify(sigc, syscall.SIGINT, syscall.SIGTERM)
	defer signal.Stop(sigc)
	fmt.Fprintf(stdout, "farmd: listening on %s (capacity %d, protocol v%d, %s)\n",
		ln.Addr(), srv.Capacity(), farm.ProtocolVersion, buildinfo.Read().Short())
	if armed := failpoint.Default.Snapshot(); len(armed) > 0 {
		fmt.Fprintf(stdout, "farmd: FAULT INJECTION ARMED: %d failpoint(s) active — not for production\n", len(armed))
	}

	serveDone := make(chan struct{})
	go func() {
		select {
		case sig := <-sigc:
			fmt.Fprintf(stdout, "farmd: %v: draining (in-flight chunks finish, budget %s)\n", sig, *drain)
			srv.Shutdown()
		case <-serveDone:
		}
	}()

	err = srv.Serve(ln)
	close(serveDone)
	srv.Shutdown() // idempotent; waits for the signal path's drain too
	if err != nil {
		fmt.Fprintf(stderr, "farmd: %v\n", err)
		return 1
	}
	fmt.Fprintln(stdout, "farmd: drained, exiting")
	return 0
}
