package service

import (
	"bufio"
	"bytes"
	"encoding/json"
	"flag"
	"fmt"
	"io"
	"net/http"
	"net/http/httptest"
	"os"
	"path/filepath"
	"regexp"
	"strings"
	"testing"
	"time"
)

// The golden files pin every /v1 endpoint's JSON shape. Regenerate
// after an intentional API change with:
//
//	go test ./internal/service -run TestHTTP -update-golden
var updateGolden = flag.Bool("update-golden", false, "rewrite the HTTP API golden files")

const goldenDir = "../../testdata/service"

// timestampRe normalizes the only non-deterministic fields in API
// responses — RFC 3339 timestamps — so golden comparisons are stable.
var timestampRe = regexp.MustCompile(`"(submitted_at|started_at|finished_at)": "[^"]*"`)

func normalize(body []byte) string {
	return timestampRe.ReplaceAllString(string(body), `"$1": "TIME"`)
}

func checkGolden(t *testing.T, name string, got string) {
	t.Helper()
	path := filepath.Join(goldenDir, name)
	if *updateGolden {
		if err := os.MkdirAll(goldenDir, 0o755); err != nil {
			t.Fatal(err)
		}
		if err := os.WriteFile(path, []byte(got), 0o644); err != nil {
			t.Fatal(err)
		}
		return
	}
	want, err := os.ReadFile(path)
	if err != nil {
		t.Fatalf("missing golden %s (run with -update-golden to create): %v", name, err)
	}
	if got != string(want) {
		t.Errorf("%s mismatch:\n--- got ---\n%s\n--- want ---\n%s", name, got, want)
	}
}

func doJSON(t *testing.T, client *http.Client, method, url string, body any) (*http.Response, []byte) {
	t.Helper()
	var rd *bytes.Reader
	if body != nil {
		data, err := json.Marshal(body)
		if err != nil {
			t.Fatal(err)
		}
		rd = bytes.NewReader(data)
	} else {
		rd = bytes.NewReader(nil)
	}
	req, err := http.NewRequest(method, url, rd)
	if err != nil {
		t.Fatal(err)
	}
	resp, err := client.Do(req)
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	var buf bytes.Buffer
	if _, err := buf.ReadFrom(resp.Body); err != nil {
		t.Fatal(err)
	}
	return resp, buf.Bytes()
}

// TestHTTPEndpointGoldens drives every /v1 endpoint against a live
// service and pins each response's JSON shape.
func TestHTTPEndpointGoldens(t *testing.T) {
	svc := newService(t, Config{MaxRunning: 1, MaxQueue: 16})
	ts := httptest.NewServer(svc.Handler())
	defer ts.Close()
	client := ts.Client()

	// POST valid spec → 202 with the allocated id.
	resp, body := doJSON(t, client, "POST", ts.URL+"/v1/campaigns", tinySpec())
	if resp.StatusCode != http.StatusAccepted {
		t.Fatalf("POST status = %d, want 202: %s", resp.StatusCode, body)
	}
	checkGolden(t, "submit_accepted.json", normalize(body))
	var accepted struct {
		ID string `json:"id"`
	}
	if err := json.Unmarshal(body, &accepted); err != nil {
		t.Fatal(err)
	}

	// POST malformed spec → 400.
	resp, body = doJSON(t, client, "POST", ts.URL+"/v1/campaigns", Spec{Unit: "iounit"})
	if resp.StatusCode != http.StatusBadRequest {
		t.Fatalf("invalid POST status = %d, want 400: %s", resp.StatusCode, body)
	}
	checkGolden(t, "submit_invalid.json", normalize(body))

	// POST a target the unit does not have → 400 naming it, no campaign.
	resp, body = doJSON(t, client, "POST", ts.URL+"/v1/campaigns", Spec{Unit: "iounit", Family: "no_such_family"})
	if resp.StatusCode != http.StatusBadRequest {
		t.Fatalf("unknown-target POST status = %d, want 400: %s", resp.StatusCode, body)
	}
	checkGolden(t, "submit_unknown_target.json", normalize(body))

	// POST rounds on an events target, which runs once → 400 naming
	// them, not a run that drops them.
	resp, body = doJSON(t, client, "POST", ts.URL+"/v1/campaigns",
		json.RawMessage(`{"unit": "iounit", "events": ["crc_004"], "rounds": 3}`))
	if resp.StatusCode != http.StatusBadRequest ||
		!strings.Contains(string(body), "rounds 3: only a family target runs more than one round") {
		t.Fatalf("events-rounds POST status = %d, want 400 naming the rounds: %s", resp.StatusCode, body)
	}

	// POST a negative budget → 400 naming it, not a run at the default.
	resp, body = doJSON(t, client, "POST", ts.URL+"/v1/campaigns",
		Spec{Unit: "iounit", Family: "crc_fifo", Config: SpecConfig{SampleSims: -7}})
	if resp.StatusCode != http.StatusBadRequest || !strings.Contains(string(body), "SampleSims -7 is negative") {
		t.Fatalf("negative-budget POST status = %d, want 400 naming the budget: %s", resp.StatusCode, body)
	}

	// POST a pool no scheduler can allocate → 400 naming it, not a
	// makechan panic in the campaign goroutine that takes the daemon down.
	resp, body = doJSON(t, client, "POST", ts.URL+"/v1/campaigns",
		json.RawMessage(`{"unit": "iounit", "family": "crc_fifo", "config": {"workers": 1099511627776}}`))
	if resp.StatusCode != http.StatusBadRequest ||
		!strings.Contains(string(body), "pool Workers 1099511627776 exceeds 1024") {
		t.Fatalf("oversized-pool POST status = %d, want 400 naming the pool: %s", resp.StatusCode, body)
	}

	// POST a misspelled budget → 400 naming the field, not a run at the
	// default.
	resp, body = doJSON(t, client, "POST", ts.URL+"/v1/campaigns",
		json.RawMessage(`{"unit": "iounit", "family": "crc_fifo", "config": {"sample_sim": 5}}`))
	if resp.StatusCode != http.StatusBadRequest ||
		!strings.Contains(string(body), `invalid spec: json: unknown field \"sample_sim\"`) {
		t.Fatalf("misspelled-field POST status = %d, want 400 naming the field: %s", resp.StatusCode, body)
	}

	// POST a spec followed by a second object → 400, not a run that
	// never reads the second object's fields.
	// (doJSON marshals its body, and no JSON value is two objects.)
	resp, err := client.Post(ts.URL+"/v1/campaigns", "application/json",
		strings.NewReader(`{"unit": "iounit", "family": "crc_fifo"} {"seed": 99, "bogus": 1}`))
	if err != nil {
		t.Fatal(err)
	}
	body, err = io.ReadAll(resp.Body)
	resp.Body.Close()
	if err != nil {
		t.Fatal(err)
	}
	if resp.StatusCode != http.StatusBadRequest ||
		!strings.Contains(string(body), "invalid spec: trailing data after the spec") {
		t.Fatalf("trailing-object POST status = %d, want 400 naming the trailing data: %s", resp.StatusCode, body)
	}

	// GET unknown id → 404.
	resp, body = doJSON(t, client, "GET", ts.URL+"/v1/campaigns/c999999", nil)
	if resp.StatusCode != http.StatusNotFound {
		t.Fatalf("unknown GET status = %d, want 404: %s", resp.StatusCode, body)
	}
	checkGolden(t, "get_unknown.json", normalize(body))

	// The submitted campaign runs to completion; GET then carries the
	// full deterministic report.
	waitDone(t, svc, accepted.ID)
	resp, body = doJSON(t, client, "GET", ts.URL+"/v1/campaigns/"+accepted.ID, nil)
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("GET status = %d, want 200: %s", resp.StatusCode, body)
	}
	checkGolden(t, "get_done.json", normalize(body))

	// GET the list → one terminal campaign (reports omitted).
	resp, body = doJSON(t, client, "GET", ts.URL+"/v1/campaigns", nil)
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("list status = %d, want 200: %s", resp.StatusCode, body)
	}
	checkGolden(t, "list.json", normalize(body))

	// The events stream replays the campaign's full JSONL history and
	// terminates because the campaign is done. The event-kind sequence
	// is deterministic; t_ms is not, so the golden keeps (event, phase)
	// pairs only.
	resp, body = doJSON(t, client, "GET", ts.URL+"/v1/campaigns/"+accepted.ID+"/events", nil)
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("events status = %d, want 200: %s", resp.StatusCode, body)
	}
	var kinds strings.Builder
	sc := bufio.NewScanner(bytes.NewReader(body))
	sc.Buffer(make([]byte, 1<<20), 1<<20)
	for sc.Scan() {
		var ev struct {
			Event string `json:"event"`
			Phase string `json:"phase"`
		}
		if err := json.Unmarshal(sc.Bytes(), &ev); err != nil {
			t.Fatalf("bad event line %q: %v", sc.Text(), err)
		}
		fmt.Fprintf(&kinds, "%s %s\n", ev.Event, ev.Phase)
	}
	checkGolden(t, "events_kinds.txt", kinds.String())
}

// TestHTTPCancelGolden pins DELETE's shape on a queued campaign (a
// deterministic state, unlike canceling a mid-run one).
func TestHTTPCancelGolden(t *testing.T) {
	svc, release := gatedService(t, Config{MaxRunning: 1, MaxQueue: 4})
	defer release()
	ts := httptest.NewServer(svc.Handler())
	defer ts.Close()
	client := ts.Client()

	_, body := doJSON(t, client, "POST", ts.URL+"/v1/campaigns", tinySpec())
	var first struct {
		ID string `json:"id"`
	}
	if err := json.Unmarshal(body, &first); err != nil {
		t.Fatal(err)
	}
	_, body = doJSON(t, client, "POST", ts.URL+"/v1/campaigns", tinySpec())
	var second struct {
		ID string `json:"id"`
	}
	if err := json.Unmarshal(body, &second); err != nil {
		t.Fatal(err)
	}

	resp, body := doJSON(t, client, "DELETE", ts.URL+"/v1/campaigns/"+second.ID, nil)
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("DELETE status = %d, want 200: %s", resp.StatusCode, body)
	}
	checkGolden(t, "cancel_queued.json", normalize(body))

	resp, body = doJSON(t, client, "DELETE", ts.URL+"/v1/campaigns/c999999", nil)
	if resp.StatusCode != http.StatusNotFound {
		t.Fatalf("DELETE unknown status = %d, want 404: %s", resp.StatusCode, body)
	}
	checkGolden(t, "delete_unknown.json", normalize(body))
}

// TestHTTPQueueFullGolden pins the 429 rejection of a one-slot,
// one-deep service's third submission: the Retry-After header plus the
// error body.
func TestHTTPQueueFullGolden(t *testing.T) {
	svc, release := gatedService(t, Config{MaxRunning: 1, MaxQueue: 1})
	defer release()
	ts := httptest.NewServer(svc.Handler())
	defer ts.Close()
	client := ts.Client()

	_, body := doJSON(t, client, "POST", ts.URL+"/v1/campaigns", tinySpec())
	var first struct {
		ID string `json:"id"`
	}
	if err := json.Unmarshal(body, &first); err != nil {
		t.Fatal(err)
	}
	deadline := time.Now().Add(10 * time.Second)
	for svc.Get(first.ID).State != StateRunning {
		if time.Now().After(deadline) {
			t.Fatal("first campaign never started")
		}
		time.Sleep(5 * time.Millisecond)
	}
	if resp, _ := doJSON(t, client, "POST", ts.URL+"/v1/campaigns", tinySpec()); resp.StatusCode != http.StatusAccepted {
		t.Fatalf("second POST status = %d, want 202", resp.StatusCode)
	}

	resp, body := doJSON(t, client, "POST", ts.URL+"/v1/campaigns", tinySpec())
	if resp.StatusCode != http.StatusTooManyRequests {
		t.Fatalf("status = %d, want 429: %s", resp.StatusCode, body)
	}
	if got := resp.Header.Get("Retry-After"); got != "15" {
		t.Fatalf("Retry-After = %q, want %q", got, "15")
	}
	checkGolden(t, "submit_rejected.json", normalize(body))
}
