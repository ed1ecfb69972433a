// Package sigctx implements the CLIs' two-stage interrupt protocol.
// The first SIGINT or SIGTERM cancels the returned context, and the
// notice names only the shutdown: each command prints its own line about
// what it keeps (a journaled flow's resume hint, a daemon's drain), and
// exits 0 — an interrupted campaign is a paused campaign, not a failed
// one. A second signal aborts the process immediately (exit 130) for
// the operator who really means it.
package sigctx

import (
	"context"
	"fmt"
	"io"
	"os"
	"os/signal"
	"sync"
	"syscall"
)

// exit is swapped by tests so a second signal can be observed without
// killing the test process.
var exit = os.Exit

// Notify returns a context canceled by the first SIGINT/SIGTERM and a
// stop function that releases the signal handler (safe to call more
// than once). Progress messages go to stderr.
func Notify(parent context.Context, stderr io.Writer) (context.Context, context.CancelFunc) {
	ctx, cancel := context.WithCancel(parent)
	ch := make(chan os.Signal, 2)
	signal.Notify(ch, os.Interrupt, syscall.SIGTERM)
	done := make(chan struct{})
	go func() {
		select {
		case sig := <-ch:
			fmt.Fprintf(stderr, "\n%v: shutting down (signal again to abort immediately)\n", sig)
			cancel()
		case <-done:
			return
		}
		select {
		case <-ch:
			fmt.Fprintln(stderr, "second signal: aborting immediately")
			exit(130)
		case <-done:
		}
	}()
	var once sync.Once
	stop := func() {
		once.Do(func() {
			signal.Stop(ch)
			cancel()
			close(done)
		})
	}
	return ctx, stop
}
