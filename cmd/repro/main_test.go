package main

import (
	"bytes"
	"os"
	"os/exec"
	"path/filepath"
	"strings"
	"testing"
)

// TestMain lets the test binary stand in for the repro command: main
// reads the process's flags and exits on its own, so tests re-execute
// themselves with REPRO_TEST_MAIN set instead of calling it.
func TestMain(m *testing.M) {
	if os.Getenv("REPRO_TEST_MAIN") != "" {
		main()
		os.Exit(0)
	}
	os.Exit(m.Run())
}

// repro runs the command with args and returns its stdout, stderr and
// exit code.
func repro(t *testing.T, args ...string) (string, string, int) {
	t.Helper()
	cmd := exec.Command(os.Args[0], args...)
	cmd.Env = append(os.Environ(), "REPRO_TEST_MAIN=1")
	var stdout, stderr bytes.Buffer
	cmd.Stdout, cmd.Stderr = &stdout, &stderr
	err := cmd.Run()
	if err != nil && cmd.ProcessState == nil {
		t.Fatal(err)
	}
	return stdout.String(), stderr.String(), cmd.ProcessState.ExitCode()
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
