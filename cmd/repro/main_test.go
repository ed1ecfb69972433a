package main

import (
	"bytes"
	"encoding/json"
	"os"
	"path/filepath"
	"strings"
	"testing"
)

// repro runs the command with args and returns its stdout, stderr and
// exit code.
func repro(t *testing.T, args ...string) (string, string, int) {
	t.Helper()
	var stdout, stderr bytes.Buffer
	code := run(args, &stdout, &stderr)
	return stdout.String(), stderr.String(), code
}

// TestCSVDirIsCreated: -csv into a directory that does not exist yet
// creates it and keeps the run; a path that cannot be a directory fails
// before any figure is simulated, not after all of them.
func TestCSVDirIsCreated(t *testing.T) {
	dir := filepath.Join(t.TempDir(), "series", "run1")
	stdout, stderr, code := repro(t, "-fig", "3", "-scale", "0.002", "-rounds", "1", "-csv", dir)
	if code != 0 {
		t.Fatalf("exit %d: %s", code, stderr)
	}
	csv, err := os.ReadFile(filepath.Join(dir, "fig3.csv"))
	if err != nil || len(csv) == 0 {
		t.Fatalf("fig3.csv not written (%d bytes): %v", len(csv), err)
	}
	if !strings.Contains(stdout, "series written to") {
		t.Fatalf("stdout does not report the series file:\n%s", stdout)
	}

	file := filepath.Join(t.TempDir(), "file")
	if err := os.WriteFile(file, nil, 0o644); err != nil {
		t.Fatal(err)
	}
	// The journal directory is created when a figure's flow is built, so
	// its absence shows none was.
	journals := filepath.Join(t.TempDir(), "ckpt")
	_, stderr, code = repro(t, "-fig", "3", "-scale", "0.002", "-rounds", "1",
		"-csv", filepath.Join(file, "series"), "-journal", journals)
	if code != 1 || !strings.Contains(stderr, "repro: mkdir") {
		t.Fatalf("exit %d, stderr %q; want the mkdir failure and exit 1", code, stderr)
	}
	if _, err := os.Stat(journals); !os.IsNotExist(err) {
		t.Fatalf("a figure's flow was built before the -csv path was checked (stat: %v)", err)
	}
}

// TestRefusesInputsItWouldRewrite: a seed of 0, a scale that is not a
// positive number at most figures.MaxScale, fewer than one round, an unregistered engine
// and a pool above sim.MaxWorkers exit 2 before any simulation, instead
// of running some other seed, scale, round count or search, or panicking
// in the scheduler's make. Engine knobs are not flags.
func TestRefusesInputsItWouldRewrite(t *testing.T) {
	for _, tc := range []struct{ flag, value, want string }{
		{"-seed", "0", "-seed 0"},
		{"-scale", "NaN", "-scale NaN"},
		{"-scale", "+Inf", "-scale +Inf"},
		{"-scale", "-5", "-scale -5"},
		{"-scale", "0", "-scale 0"},
		{"-scale", "1e300", "-scale 1e+300: want a positive number at most 9e+12"},
		{"-rounds", "0", "-rounds 0"},
		{"-rounds", "-1", "-rounds -1"},
		{"-engine", "annealing", `repro: unknown engine "annealing"`},
		{"-engine", "nelder_mead", `repro: unknown engine "nelder_mead" (registered: bayes, implicit_filtering, ranker)`},
		{"-workers", "1099511627776", "repro: -workers 1099511627776: want at most 1024"},
	} {
		args := []string{"-fig", "3", "-scale", "0.002", "-rounds", "1", "-metrics", tc.flag, tc.value}
		stdout, stderr, code := repro(t, args...)
		if code != 2 || !strings.Contains(stderr, tc.want) {
			t.Errorf("%s %s: exit %d, stderr %q; want exit 2 naming %q", tc.flag, tc.value, code, stderr, tc.want)
		}
		if stdout != "" || strings.Contains(stderr, "metrics summary") {
			t.Errorf("%s %s: a run started before the input was refused", tc.flag, tc.value)
		}
	}
	for _, flag := range []string{"-engine-params", "-failpoints"} {
		if stdout, stderr, code := repro(t, "-fig", "3", flag, "x"); code != 2 || stdout != "" ||
			!strings.Contains(stderr, "flag provided but not defined: "+flag) {
			t.Errorf("%s: exit %d, stderr %q; want exit 2 for an undefined flag", flag, code, stderr)
		}
	}
}

// TestFailedRunKeepsTraceAndMetrics: a run that fails after the
// observability session started — here a non-empty directory stands
// where the figure's journal goes, so the disk refuses it — still
// writes its trace and its metrics dump on the way out.
func TestFailedRunKeepsTraceAndMetrics(t *testing.T) {
	dir := t.TempDir()
	trace := filepath.Join(dir, "t.json")
	if err := os.MkdirAll(filepath.Join(dir, "ck", "fig3.journal", "x"), 0o755); err != nil {
		t.Fatal(err)
	}
	_, stderr, code := repro(t, "-fig", "3", "-scale", "0.002", "-rounds", "1",
		"-journal", filepath.Join(dir, "ck"), "-trace", trace, "-metrics")
	if code != 1 || !strings.Contains(stderr, "fig3.journal") {
		t.Fatalf("exit %d, want 1; stderr:\n%s", code, stderr)
	}
	data, err := os.ReadFile(trace)
	if err != nil {
		t.Fatalf("trace not written: %v", err)
	}
	var events []map[string]any
	if err := json.Unmarshal(data, &events); err != nil {
		t.Fatalf("trace is not a JSON array: %v", err)
	}
	if !strings.Contains(stderr, "metrics summary") {
		t.Fatalf("stderr lacks the metrics dump:\n%s", stderr)
	}
}
