package main

import (
	"bytes"
	"io"
	"net/http"
	"os"
	"regexp"
	"strings"
	"sync"
	"syscall"
	"testing"
	"time"

	"repro/internal/obs"
	"repro/internal/obs/obstest"
)

// lineWatcher signals the first submatch of re seen on the stream.
type lineWatcher struct {
	mu    sync.Mutex
	buf   bytes.Buffer
	re    *regexp.Regexp
	found chan string
	sent  bool
}

func newLineWatcher(re *regexp.Regexp) *lineWatcher {
	return &lineWatcher{re: re, found: make(chan string, 1)}
}

func (w *lineWatcher) Write(p []byte) (int, error) {
	w.mu.Lock()
	defer w.mu.Unlock()
	w.buf.Write(p)
	if !w.sent {
		if m := w.re.FindStringSubmatch(w.buf.String()); m != nil {
			w.sent = true
			w.found <- m[1]
		}
	}
	return len(p), nil
}

func (w *lineWatcher) String() string {
	w.mu.Lock()
	defer w.mu.Unlock()
	return w.buf.String()
}

// TestFarmdOpsEndpoints boots farmd with -debug-addr and checks the
// operational surface end to end: /metrics serves valid OpenMetrics
// with build_info, and /healthz and /readyz answer 200 while the worker
// accepts sessions.
func TestFarmdOpsEndpoints(t *testing.T) {
	stdout := &addrWatcher{addr: make(chan string, 1)}
	stderr := newLineWatcher(regexp.MustCompile(`debug endpoint on http://(\S+)/debug/`))
	code := make(chan int, 1)
	go func() {
		code <- run([]string{
			"-listen", "127.0.0.1:0", "-capacity", "1", "-drain", "2s",
			"-debug-addr", "127.0.0.1:0", "-log-format", "json",
		}, stdout, io.MultiWriter(stderr, io.Discard))
	}()
	var debugAddr string
	select {
	case debugAddr = <-stderr.found:
	case <-time.After(10 * time.Second):
		t.Fatalf("farmd never reported its debug address; stderr:\n%s", stderr.String())
	}
	select {
	case <-stdout.addr:
	case <-time.After(10 * time.Second):
		t.Fatal("farmd never reported its listen address")
	}

	base := "http://" + debugAddr
	fetch := func(path string) (int, string, http.Header) {
		t.Helper()
		resp, err := http.Get(base + path)
		if err != nil {
			t.Fatal(err)
		}
		defer resp.Body.Close()
		body, err := io.ReadAll(resp.Body)
		if err != nil {
			t.Fatal(err)
		}
		return resp.StatusCode, string(body), resp.Header
	}

	status, page, hdr := fetch("/metrics")
	if status != http.StatusOK {
		t.Fatalf("/metrics status = %d", status)
	}
	if ct := hdr.Get("Content-Type"); ct != obs.OpenMetricsContentType {
		t.Fatalf("/metrics content type = %q", ct)
	}
	if err := obstest.ValidateOpenMetrics([]byte(page)); err != nil {
		t.Fatalf("farmd /metrics is not valid OpenMetrics: %v\n%s", err, page)
	}
	if !strings.Contains(page, "ascdg_build_info{") {
		t.Fatalf("farmd /metrics lacks build_info:\n%s", page)
	}
	if status, body, _ := fetch("/healthz"); status != http.StatusOK || !strings.Contains(body, "ok") {
		t.Fatalf("/healthz = %d %q", status, body)
	}
	if status, body, _ := fetch("/readyz"); status != http.StatusOK || !strings.Contains(body, "ok") {
		t.Fatalf("/readyz = %d %q", status, body)
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
		t.Fatal("farmd did not exit after SIGTERM")
	}
}

func TestFarmdVersionFlag(t *testing.T) {
	var stdout, stderr bytes.Buffer
	if code := run([]string{"-version"}, &stdout, &stderr); code != 0 {
		t.Fatalf("-version exit = %d; stderr:\n%s", code, stderr.String())
	}
	if !strings.Contains(stdout.String(), "farmd") {
		t.Fatalf("-version output = %q", stdout.String())
	}
}
