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
//	farmd -listen :9666 [-capacity 8] [-drain 10s]
//
// SIGINT/SIGTERM drain gracefully: in-flight chunks finish and their
// results are delivered before the process exits; idle connections are
// severed immediately so dispatchers retry elsewhere. A second signal
// aborts the drain with exit 130.
package main

import (
	"context"
	"flag"
	"fmt"
	"io"
	"net"
	"os"
	"time"

	"repro/internal/buildinfo"
	"repro/internal/cli"
	_ "repro/internal/duv/ifu"
	_ "repro/internal/duv/iounit"
	_ "repro/internal/duv/l3cache"
	_ "repro/internal/duv/noc"
	"repro/internal/farm"
	"repro/internal/obs"
	"repro/internal/sigctx"
)

func main() {
	os.Exit(run(os.Args[1:], os.Stdout, os.Stderr))
}

func run(args []string, stdout, stderr io.Writer) int {
	fs := flag.NewFlagSet("farmd", flag.ContinueOnError)
	fs.SetOutput(stderr)
	listen := fs.String("listen", ":9666", "address to listen on for farm-protocol connections")
	capacity := fs.Int("capacity", 0, "concurrently executing chunks (<= 0: GOMAXPROCS); advertised to dispatchers")
	drain := fs.Duration("drain", 10*time.Second, "graceful-shutdown budget for in-flight chunks")
	var (
		obsFlags cli.Obs
		logFlags cli.Log
	)
	if code, done := cli.Parse(fs, args, stdout, &obsFlags, &logFlags); done {
		return code
	}
	// farm.ServerOptions reads a non-positive drain budget as its default.
	if *drain <= 0 {
		return cli.Fail(fs, 2, fmt.Errorf("-drain %v: want a positive duration", *drain))
	}
	logger, code := logFlags.New()
	if code != 0 {
		return code
	}
	health := obs.NewHealth()
	rec, stopObs, code := obsFlags.Start(health)
	if code != 0 {
		return code
	}
	defer stopObs()

	ln, err := net.Listen("tcp", *listen)
	if err != nil {
		return cli.Fail(fs, 1, err)
	}
	srv := farm.NewServer(farm.ServerOptions{
		Capacity:     *capacity,
		DrainTimeout: *drain,
		Rec:          rec,
		Log:          logger,
	})
	// /readyz fails once the drain begins, so orchestrators stop routing
	// new sessions at a worker that is on its way out.
	health.Set("sessions", srv.Ready)

	// The drain handler is installed before the banner is printed, so
	// whoever waits for the banner may signal at once: until Notify
	// returns, SIGTERM still takes its default action and kills the
	// process undrained. A second signal aborts the drain (exit 130).
	ctx, stopSignals := sigctx.Notify(context.Background(), stderr)
	defer stopSignals()
	fmt.Fprintf(stdout, "farmd: listening on %s (capacity %d, protocol v%d, %s)\n",
		ln.Addr(), srv.Capacity(), farm.ProtocolVersion, buildinfo.Read().Short())

	serveDone, drained := make(chan struct{}), make(chan struct{})
	go func() {
		defer close(drained)
		select {
		case <-ctx.Done():
			fmt.Fprintf(stdout, "farmd: draining (in-flight chunks finish, budget %s)\n", *drain)
			srv.Shutdown()
		case <-serveDone:
		}
	}()

	err = srv.Serve(ln)
	close(serveDone)
	<-drained
	srv.Shutdown() // idempotent
	if err != nil {
		return cli.Fail(fs, 1, err)
	}
	fmt.Fprintln(stdout, "farmd: drained, exiting")
	return 0
}
