package main

import (
	"bytes"
	"encoding/json"
	"net/http"
	"os"
	"path/filepath"
	"strings"
	"testing"
)

// traceEvent mirrors the Chrome trace-event fields the viewer requires.
type traceEvent struct {
	Name string         `json:"name"`
	Cat  string         `json:"cat"`
	Ph   string         `json:"ph"`
	Ts   float64        `json:"ts"`
	Dur  float64        `json:"dur"`
	Pid  int            `json:"pid"`
	Tid  int            `json:"tid"`
	Args map[string]any `json:"args,omitempty"`
}

// TestTraceFileCoversAllFlowPhases is the observability acceptance
// check: `ascdg -trace out.json` must produce a valid Chrome trace JSON
// array of duration events covering every phase of the flow.
func TestTraceFileCoversAllFlowPhases(t *testing.T) {
	path := filepath.Join(t.TempDir(), "out.json")
	var out, errb bytes.Buffer
	code := run(smallArgs("-unit", "iounit", "-family", "crc_fifo", "-trace", path), &out, &errb)
	if code != 0 {
		t.Fatalf("exit %d: %s", code, errb.String())
	}

	data, err := os.ReadFile(path)
	if err != nil {
		t.Fatal(err)
	}
	var events []traceEvent
	if err := json.Unmarshal(data, &events); err != nil {
		t.Fatalf("trace file is not a JSON array of events: %v", err)
	}
	if len(events) == 0 {
		t.Fatal("trace file is empty")
	}
	phases := map[string]bool{}
	for _, ev := range events {
		if ev.Ph != "X" && ev.Ph != "B" && ev.Ph != "E" {
			t.Fatalf("event with unsupported phase type %q: %+v", ev.Ph, ev)
		}
		if ev.Cat == "phase" {
			phases[ev.Name] = true
			if ev.Tid != 1 {
				t.Fatalf("flow phase %q on lane %d, want the flow lane 1", ev.Name, ev.Tid)
			}
		}
	}
	for _, want := range []string{
		"corpus", "neighbors", "tac", "skeleton", "sampling", "optimization", "harvest",
	} {
		if !phases[want] {
			t.Fatalf("trace missing the %q phase span; got %v", want, phases)
		}
	}
}

func TestProgressStreamAndMetricsDump(t *testing.T) {
	var out, errb bytes.Buffer
	code := run(smallArgs("-unit", "iounit", "-family", "crc_fifo", "-progress", "-metrics"), &out, &errb)
	if code != 0 {
		t.Fatalf("exit %d: %s", code, errb.String())
	}
	stderr := errb.String()

	// The progress stream: JSONL with phase transitions and optimizer
	// iterations, each line independently decodable.
	sawPhase, sawIter := false, false
	for _, line := range strings.Split(stderr, "\n") {
		if !strings.HasPrefix(line, "{") {
			continue // metrics dump lines share the stream
		}
		var ev map[string]any
		if err := json.Unmarshal([]byte(line), &ev); err != nil {
			t.Fatalf("progress line is not JSON: %v\n%s", err, line)
		}
		switch ev["event"] {
		case "phase_start", "phase_end":
			sawPhase = true
		case "opt_iter":
			sawIter = true
			if _, ok := ev["best_so_far"]; !ok {
				t.Fatalf("opt_iter missing best_so_far: %v", ev)
			}
		}
	}
	if !sawPhase || !sawIter {
		t.Fatalf("progress stream incomplete (phase=%v, opt_iter=%v):\n%s", sawPhase, sawIter, stderr)
	}

	// The metrics dump follows on the same stream.
	for _, want := range []string{"metrics summary", "sim.instances_completed", "opt.evals"} {
		if !strings.Contains(stderr, want) {
			t.Fatalf("metrics dump missing %q:\n%s", want, stderr)
		}
	}
}

func TestDebugEndpointDuringRun(t *testing.T) {
	var out, errb bytes.Buffer
	code := run(smallArgs("-unit", "iounit", "-family", "crc_fifo", "-debug-addr", "127.0.0.1:0"), &out, &errb)
	if code != 0 {
		t.Fatalf("exit %d: %s", code, errb.String())
	}
	// The banner proves the server bound; by the time run returns it is
	// closed again, so just check the line and that the port is gone.
	banner := errb.String()
	if !strings.Contains(banner, "debug endpoint on http://") {
		t.Fatalf("debug banner missing:\n%s", banner)
	}
	addr := strings.TrimSpace(strings.TrimPrefix(
		strings.SplitN(banner, "debug endpoint on http://", 2)[1], ""))
	addr = strings.SplitN(addr, "/debug/", 2)[0]
	if _, err := http.Get("http://" + addr + "/metrics"); err == nil {
		t.Fatalf("debug server still listening after the run")
	}
}

func TestWorkersFlagMatchesSequential(t *testing.T) {
	harvested := func(extra ...string) string {
		var out, errb bytes.Buffer
		code := run(smallArgs(append([]string{"-unit", "iounit", "-family", "crc_fifo"}, extra...)...), &out, &errb)
		if code != 0 {
			t.Fatalf("exit %d: %s", code, errb.String())
		}
		s := out.String()
		i := strings.Index(s, "harvested test-template:")
		if i < 0 {
			t.Fatalf("no harvested template in output")
		}
		return s[i:]
	}
	if one, four := harvested("-workers", "1"), harvested("-workers", "4"); one != four {
		t.Fatalf("-workers changed the harvested template:\n%s\nvs\n%s", one, four)
	}
}
