package main

import (
	"bytes"
	"io"
	"net/http"
	"os"
	"strings"
	"syscall"
	"testing"
	"time"

	"repro/internal/obs"
	"repro/internal/opt"
)

// TestCdgdOpsEndpoints boots the daemon and checks the operational
// surface on the API listener: /metrics serves valid OpenMetrics with
// build_info and the service's own series, /healthz is 200, and
// /readyz is 200 while the daemon accepts submissions.
func TestCdgdOpsEndpoints(t *testing.T) {
	var stderr syncBuffer
	base, _, code := startDaemon(t, t.TempDir(), &stderr)

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

	// A campaign gives the registry real service series to render.
	id := submit(t, base, testSpec(40))
	waitTerminal(t, base, id, 60*time.Second)

	status, page, hdr := fetch("/metrics")
	if status != http.StatusOK {
		t.Fatalf("/metrics status = %d", status)
	}
	if ct := hdr.Get("Content-Type"); ct != obs.OpenMetricsContentType {
		t.Fatalf("/metrics content type = %q", ct)
	}
	if err := obs.ValidateOpenMetrics([]byte(page)); err != nil {
		t.Fatalf("cdgd /metrics is not valid OpenMetrics: %v\n%s", err, page)
	}
	// One campaign is one sample in each campaign counter family.
	labels := "{" + obs.Labels("engine", opt.DefaultEngine, "tenant", "default") + "} 1\n"
	for _, want := range []string{"ascdg_build_info{", "service_submitted_total" + labels, "service_completed_total" + labels} {
		if !strings.Contains(page, want) {
			t.Fatalf("cdgd /metrics lacks %q:\n%s", want, page)
		}
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
	case <-time.After(30 * time.Second):
		t.Fatal("cdgd did not exit after SIGTERM")
	}
}

func TestCdgdVersionFlag(t *testing.T) {
	var stdout, stderr bytes.Buffer
	if code := run([]string{"-version"}, &stdout, &stderr); code != 0 {
		t.Fatalf("-version exit = %d; stderr:\n%s", code, stderr.String())
	}
	if !strings.Contains(stdout.String(), "cdgd") {
		t.Fatalf("-version output = %q", stdout.String())
	}
}
