package main

import (
	"bytes"
	"encoding/json"
	"os"
	"path/filepath"
	"regexp"
	"strings"
	"testing"
)

// TestWorkersFlagDeterministic checks the repository built under -workers
// N is identical to the sequential one.
func TestWorkersFlagDeterministic(t *testing.T) {
	report := func(workers string) string {
		var out, errb bytes.Buffer
		code := run([]string{"-unit", "iounit", "-sims", "50", "-workers", workers}, &out, &errb)
		if code != 0 {
			t.Fatalf("exit %d: %s", code, errb.String())
		}
		return out.String()
	}
	if one, four := report("1"), report("4"); one != four {
		t.Fatalf("-workers changed the TAC report:\n%s\nvs\n%s", one, four)
	}
}

func TestObsFlags(t *testing.T) {
	var out, errb bytes.Buffer
	code := run([]string{"-unit", "iounit", "-sims", "50", "-progress", "-metrics"}, &out, &errb)
	if code != 0 {
		t.Fatalf("exit %d: %s", code, errb.String())
	}
	stderr := errb.String()
	if !regexp.MustCompile(`sim\.batch_size +count=[1-9]`).MatchString(stderr) {
		t.Fatalf("metrics dump missing:\n%s", stderr)
	}
	// At least one JSONL line must decode (the corpus runs outside the
	// flow phases, so only scheduler-level streams are guaranteed — the
	// stream itself must still be well formed).
	for _, line := range strings.Split(stderr, "\n") {
		if strings.HasPrefix(line, "{") {
			var ev map[string]any
			if err := json.Unmarshal([]byte(line), &ev); err != nil {
				t.Fatalf("bad progress line: %v\n%s", err, line)
			}
		}
	}
}

// TestSuiteWorkersFlagDeterministic checks -workers only changes
// parallelism, never the statistics the suite optimization runs on.
func TestSuiteWorkersFlagDeterministic(t *testing.T) {
	minimize := func(workers string) string {
		var out, errb bytes.Buffer
		code := run([]string{"-unit", "iounit", "-sims", "100", "-minimize", "-workers", workers}, &out, &errb)
		if code != 0 {
			t.Fatalf("exit %d: %s", code, errb.String())
		}
		return out.String()
	}
	if one, four := minimize("1"), minimize("4"); one != four {
		t.Fatalf("-workers changed the minimized suite:\n%s\nvs\n%s", one, four)
	}
}

// TestSuiteObsFlags checks -trace and -metrics record the corpus build
// behind a -minimize query.
func TestSuiteObsFlags(t *testing.T) {
	trace := filepath.Join(t.TempDir(), "trace.json")
	var out, errb bytes.Buffer
	code := run([]string{"-unit", "iounit", "-sims", "100", "-minimize", "-workers", "4",
		"-trace", trace, "-metrics"}, &out, &errb)
	if code != 0 {
		t.Fatalf("exit %d: %s", code, errb.String())
	}
	if !strings.Contains(errb.String(), "sim.instances_completed") {
		t.Fatalf("metrics dump missing scheduler counters:\n%s", errb.String())
	}
	data, err := os.ReadFile(trace)
	if err != nil {
		t.Fatal(err)
	}
	var events []map[string]any
	if err := json.Unmarshal(data, &events); err != nil {
		t.Fatalf("trace file invalid: %v", err)
	}
	if len(events) == 0 {
		t.Fatal("trace recorded no scheduler spans")
	}
}
