// Command cdgd is the long-running campaign daemon: it serves the
// AS-CDG flow over HTTP, running submitted campaigns with bounded
// concurrency and persisting every campaign's journal so a daemon
// restart resumes in-flight work bit-identically.
//
// Usage:
//
//	cdgd -listen :9777 -data /var/lib/cdgd [-max-running 1] [-max-queue 16] \
//	     [-owner replica-a] [-lease-ttl 10s] [-tenant-weights paid=3,free=1]
//
// Several cdgd replicas may share one -data root: campaign ownership is
// arbitrated by per-campaign leases (internal/lease), so replicas adopt
// each other's interrupted campaigns — kill -9 included — without ever
// double-running one. Campaign starts follow weighted fair-share
// scheduling across tenants (-tenant-weights).
//
// API (see internal/service):
//
//	POST   /v1/campaigns             submit {"unit":"iounit","family":"crc_fifo",...}
//	GET    /v1/campaigns             list campaigns
//	GET    /v1/campaigns/{id}        status + final reports
//	GET    /v1/campaigns/{id}/events stream JSONL progress
//	DELETE /v1/campaigns/{id}        cancel
//
// SIGINT/SIGTERM drain gracefully: running campaigns checkpoint into
// their journals (the on-disk state stays "running" so the next cdgd
// resumes them), queued campaigns stay queued, and the HTTP listener
// closes. A second signal exits immediately.
package main

import (
	"context"
	"flag"
	"fmt"
	"io"
	"net"
	"net/http"
	"os"
	"os/signal"
	"syscall"
	"time"

	"repro/internal/cli"
	_ "repro/internal/duv/ifu"
	_ "repro/internal/duv/iounit"
	_ "repro/internal/duv/l3cache"
	_ "repro/internal/duv/noc"
	"repro/internal/obs"
	"repro/internal/service"
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
	owner := fs.String("owner", "", "replica identity in campaign leases (default hostname-pid); must be unique per live replica on a shared -data root")
	leaseTTL := fs.Duration("lease-ttl", 10*time.Second, "campaign lease TTL; a replica silent this long loses its campaigns to peers")
	tenantWeights := fs.String("tenant-weights", "", "fair-share weights as name=weight pairs (e.g. paid=3,free=1); unlisted tenants weigh 1")
	retryAfter := fs.Duration("retry-after", 15*time.Second, "Retry-After hint attached to 429 rejections")
	var (
		workers   cli.Workers
		farmFlags cli.Farm
		faults    cli.Faults
		obsFlags  cli.Obs
		logFlags  cli.Log
	)
	if code, done := cli.Parse(fs, args, stdout, &workers, &farmFlags, &faults, &obsFlags, &logFlags); done {
		return code
	}
	if *dataDir == "" {
		fmt.Fprintln(stderr, "cdgd: -data is required")
		return 2
	}
	if code := faults.Arm(); code != 0 {
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
	d, retry, code := farmFlags.Dial(rec, logger)
	if code != 0 {
		return code
	}
	var farmBanner string
	if d != nil {
		defer d.Close()
		farmBanner = ", farm retry " + retry
	}
	svc, err := service.New(service.Config{
		DataDir:       *dataDir,
		Owner:         *owner,
		LeaseTTL:      *leaseTTL,
		TenantWeights: weights,
		MaxRunning:    *maxRunning,
		MaxQueue:      *maxQueue,
		RetryAfter:    *retryAfter,
		Workers:       int(workers),
		Farm:          d, // chunks, capacity-aware admission and /v1/scheduler's farm health
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
	// daemon before its campaigns checkpoint.
	sigc := make(chan os.Signal, 2)
	signal.Notify(sigc, syscall.SIGINT, syscall.SIGTERM)
	defer signal.Stop(sigc)
	fmt.Fprintf(stdout, "cdgd: listening on %s (data %s, owner %s, max-running %d, max-queue %d%s)\n",
		ln.Addr(), *dataDir, svc.Owner(), *maxRunning, *maxQueue, farmBanner)

	serveDone := make(chan struct{})
	go func() {
		select {
		case sig := <-sigc:
			fmt.Fprintf(stdout, "cdgd: %v: draining (running campaigns checkpoint; queue persists)\n", sig)
			go func() {
				<-sigc
				fmt.Fprintln(stderr, "cdgd: second signal, exiting immediately")
				os.Exit(130)
			}()
			ctx, cancel := context.WithTimeout(context.Background(), 5*time.Second)
			srv.Shutdown(ctx)
			cancel()
		case <-serveDone:
		}
	}()

	err = srv.Serve(ln)
	close(serveDone)
	svc.Close() // interrupts running campaigns; they checkpoint and exit
	if err != nil && err != http.ErrServerClosed {
		return cli.Fail(fs, 1, err)
	}
	fmt.Fprintln(stdout, "cdgd: drained, exiting")
	return 0
}
