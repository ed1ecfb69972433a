// Command cdgd is the long-running campaign daemon: it serves the
// AS-CDG flow over HTTP, running submitted campaigns with bounded
// concurrency and persisting every campaign's journal so a daemon
// restart resumes in-flight work bit-identically.
//
// Usage:
//
//	cdgd -listen :9777 -data /var/lib/cdgd [-max-running 1] [-max-queue 16] \
//	     [-tenant-weights paid=3,free=1] [-farm host:port,host:port]
//
// A cdgd is the one writer of its -data root: it holds the root's lock
// (<data>/lock, internal/lease) while it lives, and a second cdgd on the
// root exits 1 naming the holder. The kernel drops the lock when the
// daemon dies, so a cdgd restarted after a crash — kill -9 included —
// resumes the interrupted campaigns at once. Campaign starts follow
// weighted fair-share scheduling across tenants (-tenant-weights).
//
// -farm hands campaign chunks to farmd workers as well as local ones.
// The fleet adds throughput only: campaigns start on -max-running
// whatever its state, and a chunk no worker takes runs locally, so
// reports are the same with or without it.
//
// API (see internal/service):
//
//	POST   /v1/campaigns             submit {"unit":"iounit","family":"crc_fifo",...}
//	GET    /v1/campaigns             list campaigns
//	GET    /v1/campaigns/{id}        status + final reports
//	GET    /v1/campaigns/{id}/events stream JSONL progress
//	DELETE /v1/campaigns/{id}        cancel
//	GET    /v1/scheduler             running and queued campaigns per tenant, farm health
//
// SIGINT/SIGTERM drain gracefully: running campaigns checkpoint into
// their journals (the on-disk state stays "running" so the next cdgd
// resumes them), queued campaigns stay queued, and the HTTP listener
// closes. A second signal exits immediately with exit 130.
package main

import (
	"context"
	"flag"
	"fmt"
	"io"
	"net"
	"net/http"
	"os"
	"time"

	"repro/internal/cli"
	_ "repro/internal/duv/ifu"
	_ "repro/internal/duv/iounit"
	_ "repro/internal/duv/l3cache"
	_ "repro/internal/duv/noc"
	"repro/internal/obs"
	"repro/internal/service"
	"repro/internal/sigctx"
)

func main() {
	os.Exit(run(os.Args[1:], os.Stdout, os.Stderr))
}

func run(args []string, stdout, stderr io.Writer) int {
	fs := flag.NewFlagSet("cdgd", flag.ContinueOnError)
	fs.SetOutput(stderr)
	listen := fs.String("listen", ":9777", "address to serve the campaign API on")
	dataDir := fs.String("data", "", "campaign store directory (required); journals here survive restarts")
	maxRunning := fs.Int("max-running", 1, "concurrently running campaigns")
	maxQueue := fs.Int("max-queue", 16, "queued campaigns beyond the running ones; more are rejected with 429")
	tenantWeights := fs.String("tenant-weights", "", "fair-share weights as name=weight pairs (e.g. paid=3,free=1); unlisted tenants weigh 1")
	var (
		workers   cli.Workers
		farmFlags cli.Farm
		obsFlags  cli.Obs
		logFlags  cli.Log
	)
	if code, done := cli.Parse(fs, args, stdout, &workers, &farmFlags, &obsFlags, &logFlags); done {
		return code
	}
	if *dataDir == "" {
		fmt.Fprintln(stderr, "cdgd: -data is required")
		return 2
	}
	// service.Config reads a zero or negative bound as its default; a
	// value given here is taken as given or refused.
	switch {
	case *maxRunning < 1:
		return cli.Fail(fs, 2, fmt.Errorf("-max-running %d: want at least 1", *maxRunning))
	case *maxQueue < 1:
		return cli.Fail(fs, 2, fmt.Errorf("-max-queue %d: want at least 1", *maxQueue))
	}
	if code := workers.Check(fs); code != 0 {
		return code
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

	weights, err := service.ParseTenantWeights(*tenantWeights)
	if err != nil {
		return cli.Fail(fs, 2, fmt.Errorf("-tenant-weights: %w", err))
	}
	d, code := farmFlags.Dial(rec, logger)
	if code != 0 {
		return code
	}
	if d != nil {
		defer d.Close()
	}
	svc, err := service.New(service.Config{
		DataDir:       *dataDir,
		TenantWeights: weights,
		MaxRunning:    *maxRunning,
		MaxQueue:      *maxQueue,
		Workers:       int(workers),
		Farm:          d, // campaign chunks and /v1/scheduler's farm health
		Rec:           rec,
		Log:           logger,
	})
	if err != nil {
		return cli.Fail(fs, 1, err)
	}
	// The debug listener's /readyz mirrors the API mux's: not ready once
	// the service drains, the queue saturates, or the data root breaks.
	health.Set("service", svc.Ready)

	ln, err := net.Listen("tcp", *listen)
	if err != nil {
		svc.Close()
		return cli.Fail(fs, 1, err)
	}
	srv := &http.Server{Handler: svc.Handler()}

	// The drain handler is installed before the banner is printed, so
	// whoever waits for the banner may signal at once: until Notify
	// returns, SIGTERM still takes its default action and kills the
	// daemon before its campaigns checkpoint. A second signal exits at
	// once (exit 130).
	sigCtx, stopSignals := sigctx.Notify(context.Background(), stderr)
	defer stopSignals()
	fmt.Fprintf(stdout, "cdgd: listening on %s (data %s, max-running %d, max-queue %d)\n",
		ln.Addr(), *dataDir, *maxRunning, *maxQueue)

	serveDone, drained := make(chan struct{}), make(chan struct{})
	go func() {
		defer close(drained)
		select {
		case <-sigCtx.Done():
			fmt.Fprintln(stdout, "cdgd: draining (running campaigns checkpoint; queue persists)")
			ctx, cancel := context.WithTimeout(context.Background(), 5*time.Second)
			srv.Shutdown(ctx)
			cancel()
		case <-serveDone:
		}
	}()

	err = srv.Serve(ln)
	close(serveDone)
	svc.Close() // interrupts running campaigns; they checkpoint and exit
	<-drained
	if err != nil && err != http.ErrServerClosed {
		return cli.Fail(fs, 1, err)
	}
	fmt.Fprintln(stdout, "cdgd: drained, exiting")
	return 0
}
