package main

import (
	"bytes"
	"errors"
	"io"
	"os"
	"os/exec"
	"path/filepath"
	"regexp"
	"strings"
	"sync"
	"syscall"
	"testing"
	"time"

	"repro/internal/coverage"
	"repro/internal/duv/iounit"
	"repro/internal/farm"
	"repro/internal/obs"
	"repro/internal/sim"
	"repro/internal/template"
)

// addrWatcher captures run's stdout and signals the bound listen
// address as soon as the startup line appears.
type addrWatcher struct {
	mu   sync.Mutex
	buf  bytes.Buffer
	addr chan string
	sent bool
}

var listenLine = regexp.MustCompile(`listening on (\S+)`)

func (w *addrWatcher) Write(p []byte) (int, error) {
	w.mu.Lock()
	defer w.mu.Unlock()
	w.buf.Write(p)
	if !w.sent {
		if m := listenLine.FindStringSubmatch(w.buf.String()); m != nil {
			w.sent = true
			w.addr <- m[1]
		}
	}
	return len(p), nil
}

func (w *addrWatcher) String() string {
	w.mu.Lock()
	defer w.mu.Unlock()
	return w.buf.String()
}

// syncBuffer is a bytes.Buffer that takes concurrent writes, as a
// daemon's stderr does: its logger and its signal notice write from
// different goroutines.
type syncBuffer struct {
	mu  sync.Mutex
	buf bytes.Buffer
}

func (b *syncBuffer) Write(p []byte) (int, error) {
	b.mu.Lock()
	defer b.mu.Unlock()
	return b.buf.Write(p)
}

func (b *syncBuffer) String() string {
	b.mu.Lock()
	defer b.mu.Unlock()
	return b.buf.String()
}

// TestFarmdServesAndDrainsOnSignal boots the daemon on an ephemeral
// port, executes a real chunk against it over TCP, then delivers
// SIGTERM and checks the clean-drain path: exit code 0 and the drain
// banner, with the dispatcher's result bit-identical to a local run.
func TestFarmdServesAndDrainsOnSignal(t *testing.T) {
	stdout := &addrWatcher{addr: make(chan string, 1)}
	var stderr syncBuffer
	code := make(chan int, 1)
	go func() {
		code <- run([]string{"-listen", "127.0.0.1:0", "-capacity", "2", "-drain", "5s"}, stdout, &stderr)
	}()
	var addr string
	select {
	case addr = <-stdout.addr:
	case <-time.After(10 * time.Second):
		t.Fatalf("farmd never reported its listen address; stderr:\n%s", stderr.String())
	}
	if !strings.Contains(stdout.String(), "protocol v3") {
		t.Fatalf("startup banner does not name the protocol:\n%s", stdout.String())
	}

	d := farm.New([]string{addr}, farm.Options{})
	defer d.Close()
	if err := d.WaitReady(10 * time.Second); err != nil {
		t.Fatal(err)
	}
	unit := iounit.New()
	tmpl, err := template.Parse("template farmd_t { weight Command { dma_read: 5; dma_write: 15; } }")
	if err != nil {
		t.Fatal(err)
	}
	chunk := sim.RemoteChunk{
		Unit: iounit.UnitName, Template: tmpl, Seed: 77,
		Lo: 0, Hi: 200, Events: unit.Model().Size(),
	}
	got := coverage.NewCountsFor(unit.Model())
	if err := d.RunChunkInto(chunk, got); err != nil {
		t.Fatal(err)
	}
	local := sim.NewEnv(unit, 1, 1)
	defer local.Close()
	want := coverage.NewCountsFor(unit.Model())
	if err := local.RunChunkInto(tmpl, chunk.Seed, chunk.Lo, chunk.Hi, want); err != nil {
		t.Fatal(err)
	}
	for i := 0; i < want.Len(); i++ {
		if got.Hits(i) != want.Hits(i) {
			t.Fatalf("event %d: remote hits %d, local hits %d", i, got.Hits(i), want.Hits(i))
		}
	}

	if err := syscall.Kill(os.Getpid(), syscall.SIGTERM); err != nil {
		t.Fatal(err)
	}
	select {
	case c := <-code:
		if c != 0 {
			t.Fatalf("exit code = %d, want 0; stderr:\n%s", c, stderr.String())
		}
	case <-time.After(15 * time.Second):
		t.Fatalf("farmd did not exit after SIGTERM; stdout:\n%s\nstderr:\n%s",
			stdout.String(), stderr.String())
	}
	out := stdout.String()
	if !strings.Contains(out, "draining") || !strings.Contains(out, "drained, exiting") {
		t.Fatalf("missing drain banners in output:\n%s", out)
	}
	// farmd keeps nothing across a restart: the signal notice names the
	// shutdown and promises no checkpoint.
	if errOut := stderr.String(); !strings.Contains(errOut, "shutting down") || strings.Contains(errOut, "checkpointing") {
		t.Fatalf("signal notice on stderr should name only the shutdown:\n%s", errOut)
	}
}

// TestFarmdSecondSignalAborts: a second SIGTERM during the drain ends
// a built farmd at once with exit 130, well inside its -drain budget,
// though a chunk is still executing.
func TestFarmdSecondSignalAborts(t *testing.T) {
	bin := filepath.Join(t.TempDir(), "farmd")
	if out, err := exec.Command("go", "build", "-o", bin, ".").CombinedOutput(); err != nil {
		t.Fatalf("go build: %v\n%s", err, out)
	}
	stdout := &addrWatcher{addr: make(chan string, 1)}
	var stderr bytes.Buffer
	cmd := exec.Command(bin, "-listen", "127.0.0.1:0", "-capacity", "1", "-drain", "10m")
	cmd.Stdout, cmd.Stderr = stdout, &stderr
	if err := cmd.Start(); err != nil {
		t.Fatal(err)
	}
	exited := make(chan error, 1)
	go func() { exited <- cmd.Wait() }()
	t.Cleanup(func() {
		cmd.Process.Kill()
		<-exited
	})
	var addr string
	select {
	case addr = <-stdout.addr:
	case <-time.After(30 * time.Second):
		t.Fatalf("farmd never reported its listen address; stdout:\n%s", stdout.String())
	}

	// A chunk of minutes of simulation keeps the drain waiting.
	rec := obs.NewRecorder()
	d := farm.New([]string{addr}, farm.Options{Rec: rec})
	defer d.Close()
	if err := d.WaitReady(10 * time.Second); err != nil {
		t.Fatal(err)
	}
	unit := iounit.New()
	chunk := sim.RemoteChunk{Unit: iounit.UnitName, Seed: 5, Lo: 0, Hi: 1 << 24, Events: unit.Model().Size()}
	go d.RunChunkInto(chunk, coverage.NewCountsFor(unit.Model()))
	for deadline := time.Now().Add(10 * time.Second); rec.Gauge("farm.inflight").Value() == 0; {
		if time.Now().After(deadline) {
			t.Fatal("the chunk never went out")
		}
		time.Sleep(10 * time.Millisecond)
	}
	time.Sleep(300 * time.Millisecond) // let farmd read the request

	cmd.Process.Signal(syscall.SIGTERM)
	for deadline := time.Now().Add(10 * time.Second); !strings.Contains(stdout.String(), "draining"); {
		if time.Now().After(deadline) {
			t.Fatalf("no drain banner after SIGTERM; stdout:\n%s", stdout.String())
		}
		time.Sleep(10 * time.Millisecond)
	}
	cmd.Process.Signal(syscall.SIGTERM)
	select {
	case err := <-exited:
		var ee *exec.ExitError
		if !errors.As(err, &ee) || ee.ExitCode() != 130 {
			t.Fatalf("farmd exited with %v, want exit 130; stderr:\n%s", err, stderr.String())
		}
		exited <- err // for the cleanup
	case <-time.After(10 * time.Second):
		t.Fatalf("farmd still draining 10s after a second SIGTERM; stdout:\n%s", stdout.String())
	}
}

// TestFarmdFlagErrorExitsTwo: an undefined flag, and a drain budget the
// worker would replace with its default, exit 2 naming the flag before
// the worker listens.
func TestFarmdFlagErrorExitsTwo(t *testing.T) {
	for _, tc := range []struct{ flag, value, want string }{
		{"-no-such-flag", "", "flag provided but not defined: -no-such-flag"},
		{"-failpoints", "farm/dial=error", "flag provided but not defined: -failpoints"},
		{"-drain", "-1s", "farmd: -drain -1s: want a positive duration"},
		{"-drain", "0s", "farmd: -drain 0s: want a positive duration"},
	} {
		args := []string{"-listen", "127.0.0.1:0", tc.flag}
		if tc.value != "" {
			args = append(args, tc.value)
		}
		var stdout, stderr bytes.Buffer
		if code := run(args, &stdout, &stderr); code != 2 || !strings.Contains(stderr.String(), tc.want) {
			t.Errorf("%s %s: exit %d, stderr %q; want exit 2 naming %q", tc.flag, tc.value, code, stderr.String(), tc.want)
		}
		if stdout.Len() != 0 {
			t.Errorf("%s %s: the worker started:\n%s", tc.flag, tc.value, stdout.String())
		}
	}
}

func TestFarmdBadListenAddr(t *testing.T) {
	var stderr bytes.Buffer
	if code := run([]string{"-listen", "256.0.0.1:bogus"}, io.Discard, &stderr); code != 1 {
		t.Fatalf("exit code = %d, want 1; stderr:\n%s", code, stderr.String())
	}
}
