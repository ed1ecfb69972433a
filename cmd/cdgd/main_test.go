package main

import (
	"bytes"
	"context"
	"encoding/json"
	"io"
	"net/http"
	"os"
	"path/filepath"
	"regexp"
	"strings"
	"sync"
	"syscall"
	"testing"
	"time"

	"repro/internal/core"
	"repro/internal/duv/iounit"
	"repro/internal/service"
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

// startDaemon boots cdgd on an ephemeral port against dataDir and
// returns its base URL plus the exit-code channel.
func startDaemon(t *testing.T, dataDir string, stderr io.Writer) (string, *addrWatcher, chan int) {
	t.Helper()
	stdout := &addrWatcher{addr: make(chan string, 1)}
	code := make(chan int, 1)
	go func() {
		code <- run([]string{"-listen", "127.0.0.1:0", "-data", dataDir, "-metrics"}, stdout, stderr)
	}()
	select {
	case addr := <-stdout.addr:
		return "http://" + addr, stdout, code
	case <-time.After(10 * time.Second):
		t.Fatal("cdgd never reported its listen address")
		return "", nil, nil
	}
}

func testSpec(corpusSims int) service.Spec {
	return service.Spec{
		Unit:   iounit.UnitName,
		Family: iounit.FamilyName,
		Decay:  0.4,
		Seed:   21,
		Config: service.SpecConfig{
			CorpusSims:      corpusSims,
			TopTemplates:    2,
			Subranges:       2,
			SampleTemplates: 6,
			SampleSims:      8,
			OptIterations:   3,
			OptDirections:   3,
			OptSims:         10,
			BestSims:        60,
			Workers:         3,
		},
	}
}

func submit(t *testing.T, base string, spec service.Spec) string {
	t.Helper()
	data, err := json.Marshal(spec)
	if err != nil {
		t.Fatal(err)
	}
	resp, err := http.Post(base+"/v1/campaigns", "application/json", bytes.NewReader(data))
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	var out struct {
		ID string `json:"id"`
	}
	if err := json.NewDecoder(resp.Body).Decode(&out); err != nil {
		t.Fatal(err)
	}
	if resp.StatusCode != http.StatusAccepted || out.ID == "" {
		t.Fatalf("submit: status %d, id %q", resp.StatusCode, out.ID)
	}
	return out.ID
}

func getState(t *testing.T, base, id string) *service.State {
	t.Helper()
	resp, err := http.Get(base + "/v1/campaigns/" + id)
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	var st service.State
	if err := json.NewDecoder(resp.Body).Decode(&st); err != nil {
		t.Fatal(err)
	}
	return &st
}

func waitTerminal(t *testing.T, base, id string, timeout time.Duration) *service.State {
	t.Helper()
	deadline := time.Now().Add(timeout)
	for {
		st := getState(t, base, id)
		switch st.State {
		case service.StateDone, service.StateFailed, service.StateCanceled:
			return st
		}
		if time.Now().After(deadline) {
			t.Fatalf("campaign %s stuck in %q", id, st.State)
		}
		time.Sleep(20 * time.Millisecond)
	}
}

// expectedReports runs the identical campaign through the core API
// directly — exactly what cmd/ascdg does — and projects it through the
// same JSON view the service persists.
func expectedReports(t *testing.T, spec service.Spec) []*service.ReportJSON {
	t.Helper()
	unit := iounit.New()
	cfg := core.Config{
		Seed:                  spec.Seed,
		Workers:               spec.Config.Workers,
		CorpusSimsPerTemplate: spec.Config.CorpusSims,
		TopTemplates:          spec.Config.TopTemplates,
		Subranges:             spec.Config.Subranges,
		SampleTemplates:       spec.Config.SampleTemplates,
		SampleSims:            spec.Config.SampleSims,
		OptIterations:         spec.Config.OptIterations,
		OptDirections:         spec.Config.OptDirections,
		OptSims:               spec.Config.OptSims,
		BestSims:              spec.Config.BestSims,
	}
	flow, err := core.New(unit, cfg)
	if err != nil {
		t.Fatal(err)
	}
	defer flow.Close()
	reports, err := flow.Run(context.Background(), core.Target{Family: spec.Family, Decay: spec.Decay, Rounds: spec.Rounds})
	if err != nil {
		t.Fatal(err)
	}
	out := make([]*service.ReportJSON, len(reports))
	for i, r := range reports {
		out[i] = service.NewReportJSON(r, unit.Model())
	}
	return out
}

func canonJSON(t *testing.T, v any) string {
	t.Helper()
	data, err := json.Marshal(v)
	if err != nil {
		t.Fatal(err)
	}
	return string(data)
}

// TestCdgdEndToEnd is the daemon's acceptance path: submit a campaign
// over HTTP, stream its events, check the final report equals the same
// campaign run directly through the core flow; then interrupt a second
// campaign with SIGTERM mid-run, restart the daemon on the same data
// directory, and check the resumed campaign's report is bit-identical
// to an uninterrupted run.
func TestCdgdEndToEnd(t *testing.T) {
	dataDir := t.TempDir()
	var stderr syncBuffer
	base, stdout, code := startDaemon(t, dataDir, &stderr)

	// Campaign 1: runs to completion; its report must match the direct
	// core-API run of the same campaign.
	spec := testSpec(40)
	id := submit(t, base, spec)
	st := waitTerminal(t, base, id, 60*time.Second)
	if st.State != service.StateDone {
		t.Fatalf("campaign state = %q (error %q)", st.State, st.Error)
	}
	if got, want := canonJSON(t, st.Reports), canonJSON(t, expectedReports(t, spec)); got != want {
		t.Fatalf("daemon report differs from direct core run:\n got %s\nwant %s", got, want)
	}

	// The events stream terminates (campaign is done) and carries the
	// flow's phase history.
	resp, err := http.Get(base + "/v1/campaigns/" + id + "/events")
	if err != nil {
		t.Fatal(err)
	}
	events, err := io.ReadAll(resp.Body)
	resp.Body.Close()
	if err != nil {
		t.Fatal(err)
	}
	if !bytes.Contains(events, []byte(`"phase":"corpus"`)) || !bytes.Contains(events, []byte(`"event":"phase_end"`)) {
		t.Fatalf("events stream missing phase history:\n%s", events)
	}

	// Campaign 2: big enough to still be running when SIGTERM lands.
	longSpec := testSpec(10000)
	id2 := submit(t, base, longSpec)
	deadline := time.Now().Add(30 * time.Second)
	for {
		if st := getState(t, base, id2); st.State == service.StateRunning {
			if _, err := os.Stat(filepath.Join(dataDir, id2, "flow.journal")); err == nil {
				break
			}
		}
		if time.Now().After(deadline) {
			t.Fatal("second campaign never started running")
		}
		time.Sleep(5 * time.Millisecond)
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
		t.Fatalf("cdgd did not exit after SIGTERM; stdout:\n%s", stdout.String())
	}
	if out := stdout.String(); !strings.Contains(out, "draining") || !strings.Contains(out, "drained, exiting") {
		t.Fatalf("missing drain banners:\n%s", out)
	}
	// The drained campaign is still "running" on disk — that's the
	// restart-resume contract.
	stateData, err := os.ReadFile(filepath.Join(dataDir, id2, "campaign.json"))
	if err != nil {
		t.Fatal(err)
	}
	if !bytes.Contains(stateData, []byte(`"state": "running"`)) {
		t.Fatalf("on-disk state after drain:\n%s", stateData)
	}
	// The -metrics dump includes the service counters.
	if !strings.Contains(stderr.String(), "service.submitted") {
		t.Fatalf("metrics dump missing service.* counters:\n%s", stderr.String())
	}

	// Restart on the same data directory: the campaign resumes without
	// any new submission and finishes with the exact reports an
	// uninterrupted run produces.
	base2, stdout2, code2 := startDaemon(t, dataDir, io.Discard)
	st2 := waitTerminal(t, base2, id2, 120*time.Second)
	if st2.State != service.StateDone {
		t.Fatalf("resumed campaign state = %q (error %q)", st2.State, st2.Error)
	}
	if got, want := canonJSON(t, st2.Reports), canonJSON(t, expectedReports(t, longSpec)); got != want {
		t.Fatal("resumed campaign's report differs from an uninterrupted run")
	}

	if err := syscall.Kill(os.Getpid(), syscall.SIGTERM); err != nil {
		t.Fatal(err)
	}
	select {
	case c := <-code2:
		if c != 0 {
			t.Fatalf("restarted daemon exit code = %d, want 0", c)
		}
	case <-time.After(30 * time.Second):
		t.Fatalf("restarted cdgd did not exit; stdout:\n%s", stdout2.String())
	}
}

func TestCdgdRequiresDataDir(t *testing.T) {
	var stderr bytes.Buffer
	if code := run([]string{"-listen", "127.0.0.1:0"}, io.Discard, &stderr); code != 2 {
		t.Fatalf("exit code = %d, want 2", code)
	}
	if !strings.Contains(stderr.String(), "-data is required") {
		t.Fatalf("stderr missing diagnostic:\n%s", stderr.String())
	}
}

// TestCdgdFlagErrorExitsTwo: an undefined flag, and a bound the service
// would replace with its default, exit 2 naming the flag before the
// daemon serves — instead of printing one value and running another.
func TestCdgdFlagErrorExitsTwo(t *testing.T) {
	for _, tc := range []struct{ flag, value, want string }{
		{"-no-such-flag", "", "flag provided but not defined: -no-such-flag"},
		{"-failpoints", "journal/append=error", "flag provided but not defined: -failpoints"},
		{"-max-running", "-1", "cdgd: -max-running -1: want at least 1"},
		{"-max-running", "0", "cdgd: -max-running 0: want at least 1"},
		{"-max-queue", "-2", "cdgd: -max-queue -2: want at least 1"},
		{"-retry-after", "5s", "flag provided but not defined: -retry-after"},
	} {
		args := []string{"-data", t.TempDir(), "-listen", "127.0.0.1:0", tc.flag}
		if tc.value != "" {
			args = append(args, tc.value)
		}
		var stdout, stderr bytes.Buffer
		if code := run(args, &stdout, &stderr); code != 2 || !strings.Contains(stderr.String(), tc.want) {
			t.Errorf("%s %s: exit %d, stderr %q; want exit 2 naming %q", tc.flag, tc.value, code, stderr.String(), tc.want)
		}
		if stdout.Len() != 0 {
			t.Errorf("%s %s: the daemon started:\n%s", tc.flag, tc.value, stdout.String())
		}
	}
}
