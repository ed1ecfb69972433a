package service

import (
	"io"
	"net/http"
	"net/http/httptest"
	"strings"
	"testing"
	"time"

	"repro/internal/obs"
	"repro/internal/obs/obstest"
)

// TestServiceOpsEndpoints covers the daemon's operational surface as
// mounted by Handler(): /metrics must render the service's registry as
// valid OpenMetrics, /healthz is always 200 (liveness), and /readyz
// follows Service.Ready — 200 while accepting work, 503 once the
// service drains.
func TestServiceOpsEndpoints(t *testing.T) {
	rec := obs.NewRecorder()
	svc := newService(t, Config{MaxRunning: 1, MaxQueue: 4, Rec: rec})
	ts := httptest.NewServer(svc.Handler())
	defer ts.Close()

	fetch := func(path string) (int, string, http.Header) {
		t.Helper()
		resp, err := http.Get(ts.URL + path)
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

	rec.Counter("service.test_marker").Add(3)
	code, page, hdr := fetch("/metrics")
	if code != http.StatusOK {
		t.Fatalf("/metrics status = %d", code)
	}
	if ct := hdr.Get("Content-Type"); ct != obs.OpenMetricsContentType {
		t.Fatalf("/metrics content type = %q", ct)
	}
	if err := obstest.ValidateOpenMetrics([]byte(page)); err != nil {
		t.Fatalf("/metrics is not valid OpenMetrics: %v\n%s", err, page)
	}
	if !strings.Contains(page, "service_test_marker_total 3\n") {
		t.Fatalf("/metrics lacks the service registry's series:\n%s", page)
	}

	if code, body, _ := fetch("/healthz"); code != http.StatusOK || !strings.Contains(body, "ok") {
		t.Fatalf("/healthz = %d %q", code, body)
	}
	if code, body, _ := fetch("/readyz"); code != http.StatusOK || !strings.Contains(body, "ok") {
		t.Fatalf("/readyz = %d %q", code, body)
	}

	// Draining flips readiness but not liveness.
	svc.Close()
	if code, body, _ := fetch("/readyz"); code != http.StatusServiceUnavailable ||
		!strings.Contains(body, "service:") {
		t.Fatalf("/readyz after Close = %d %q, want 503 naming the service check", code, body)
	}
	if code, _, _ := fetch("/healthz"); code != http.StatusOK {
		t.Fatalf("/healthz after Close = %d, want 200 (liveness is not readiness)", code)
	}
}

// TestServiceReadyQueueSaturation locks the back-pressure half of
// Service.Ready: a full queue reads as not-ready so a load balancer
// stops routing new submissions, without the service dying.
func TestServiceReadyQueueSaturation(t *testing.T) {
	svc := newService(t, Config{MaxRunning: 1, MaxQueue: 1})
	if err := svc.Ready(); err != nil {
		t.Fatalf("fresh service not ready: %v", err)
	}

	// Occupy the single runner slot, then fill the one-deep queue.
	blocked := tinySpec()
	blocked.Config.BestSims = 4000
	blocked.Config.CorpusSims = 4000
	id, err := svc.Submit(blocked)
	if err != nil {
		t.Fatal(err)
	}
	deadline := time.Now().Add(5 * time.Second)
	for svc.Get(id).State != StateRunning {
		if time.Now().After(deadline) {
			t.Fatalf("campaign %s never started running", id)
		}
		time.Sleep(time.Millisecond)
	}
	if _, err := svc.Submit(tinySpec()); err != nil {
		t.Fatal(err)
	}
	if err := svc.Ready(); err == nil {
		t.Fatal("service ready with a saturated queue")
	}
}
