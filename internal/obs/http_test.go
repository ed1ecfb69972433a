package obs

import (
	"fmt"
	"io"
	"net/http"
	"strings"
	"testing"
)

func get(t *testing.T, url string) []byte {
	t.Helper()
	resp, err := http.Get(url)
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("GET %s: status %d", url, resp.StatusCode)
	}
	body, err := io.ReadAll(resp.Body)
	if err != nil {
		t.Fatal(err)
	}
	return body
}

// TestDebugServerEndpoints: the debug server serves pprof next to the
// ops endpoints, and nothing else under /debug/.
func TestDebugServerEndpoints(t *testing.T) {
	srv, err := ServeDebug("127.0.0.1:0", NewRegistry(), nil)
	if err != nil {
		t.Fatal(err)
	}
	defer srv.Close()
	base := "http://" + srv.Addr()

	pprofIndex := string(get(t, base+"/debug/pprof/"))
	if !strings.Contains(pprofIndex, "goroutine") {
		t.Fatalf("/debug/pprof/ index looks wrong:\n%s", pprofIndex)
	}
	for _, path := range []string{"/debug/vars", "/debug/metrics"} {
		resp, err := http.Get(base + path)
		if err != nil {
			t.Fatal(err)
		}
		resp.Body.Close()
		if resp.StatusCode != http.StatusNotFound {
			t.Fatalf("GET %s: status %d, want 404", path, resp.StatusCode)
		}
	}
}

// TestDebugServerOpsEndpoints exercises the ops surface: /metrics must
// emit valid OpenMetrics (while histograms are concurrently observed),
// /healthz is always 200, and /readyz follows the Health checks.
func TestDebugServerOpsEndpoints(t *testing.T) {
	reg := NewRegistry()
	reg.Counter("farm.chunks").Add(7)
	health := NewHealth()
	srv, err := ServeDebug("127.0.0.1:0", reg, health)
	if err != nil {
		t.Fatal(err)
	}
	defer srv.Close()
	base := "http://" + srv.Addr()

	// Hammer a histogram while scraping: every page must stay valid.
	stop := make(chan struct{})
	histDone := make(chan struct{})
	go func() {
		defer close(histDone)
		h := reg.Histogram("scrape.race_ns", LatencyBounds())
		for i := uint64(0); ; i++ {
			select {
			case <-stop:
				return
			default:
				h.Observe(i * 1000)
			}
		}
	}()
	for i := 0; i < 10; i++ {
		resp, err := http.Get(base + "/metrics")
		if err != nil {
			t.Fatal(err)
		}
		if ct := resp.Header.Get("Content-Type"); ct != OpenMetricsContentType {
			t.Fatalf("/metrics content type = %q", ct)
		}
		body, err := io.ReadAll(resp.Body)
		resp.Body.Close()
		if err != nil {
			t.Fatal(err)
		}
		if err := ValidateOpenMetrics(body); err != nil {
			t.Fatalf("scrape %d invalid: %v\n%s", i, err, body)
		}
	}
	close(stop)
	<-histDone
	page := string(get(t, base+"/metrics"))
	if !strings.Contains(page, "farm_chunks_total 7\n") ||
		!strings.Contains(page, `scrape_race_ns_bucket{le="+Inf"}`) {
		t.Fatalf("/metrics page missing expected series:\n%s", page)
	}

	if body := string(get(t, base+"/healthz")); !strings.Contains(body, "ok") {
		t.Fatalf("/healthz = %q", body)
	}
	if body := string(get(t, base+"/readyz")); !strings.Contains(body, "ok") {
		t.Fatalf("/readyz = %q", body)
	}

	// Flip a health check: /readyz turns 503 with the failure named,
	// /healthz stays 200.
	health.Set("sessions", func() error { return fmt.Errorf("draining") })
	resp, err := http.Get(base + "/readyz")
	if err != nil {
		t.Fatal(err)
	}
	body, _ := io.ReadAll(resp.Body)
	resp.Body.Close()
	if resp.StatusCode != http.StatusServiceUnavailable {
		t.Fatalf("/readyz status = %d, want 503", resp.StatusCode)
	}
	if !strings.Contains(string(body), "sessions: draining") {
		t.Fatalf("/readyz body = %q", body)
	}
	get(t, base+"/healthz")
}
