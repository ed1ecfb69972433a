package main

import (
	"bytes"
	"os"
	"path/filepath"
	"strings"
	"testing"
)

// smallArgs keeps CLI end-to-end runs fast.
func smallArgs(extra ...string) []string {
	base := []string{
		"-corpus", "150",
		"-samples", "15",
		"-sample-sims", "20",
		"-iterations", "4",
		"-directions", "5",
		"-opt-sims", "20",
		"-best-sims", "200",
	}
	return append(base, extra...)
}

func TestFamilyRun(t *testing.T) {
	var out, errb bytes.Buffer
	code := run(smallArgs("-unit", "iounit", "-family", "crc_fifo"), &out, &errb)
	if code != 0 {
		t.Fatalf("exit %d: %s", code, errb.String())
	}
	s := out.String()
	for _, want := range []string{"AS-CDG run", "crc_004", "harvested test-template", "iter"} {
		if !strings.Contains(s, want) {
			t.Errorf("output missing %q", want)
		}
	}
}

func TestCrossRun(t *testing.T) {
	var out, errb bytes.Buffer
	code := run(smallArgs("-unit", "ifu", "-cross", "ifu"), &out, &errb)
	if code != 0 {
		t.Fatalf("exit %d: %s", code, errb.String())
	}
	if !strings.Contains(out.String(), "never") || !strings.Contains(out.String(), "well") {
		t.Fatal("status table missing")
	}
}

func TestOutFileWritten(t *testing.T) {
	path := filepath.Join(t.TempDir(), "best.tmpl")
	var out, errb bytes.Buffer
	code := run(smallArgs("-unit", "l3cache", "-family", "byp_reqs", "-out", path), &out, &errb)
	if code != 0 {
		t.Fatalf("exit %d: %s", code, errb.String())
	}
	data, err := os.ReadFile(path)
	if err != nil {
		t.Fatal(err)
	}
	if !strings.Contains(string(data), "template l3cache_cdg_best") {
		t.Fatalf("harvested template file:\n%s", data)
	}
}

func TestErrors(t *testing.T) {
	var out, errb bytes.Buffer
	if code := run([]string{}, &out, &errb); code != 2 {
		t.Errorf("missing unit: exit %d, want 2", code)
	}
	if code := run([]string{"-unit", "iounit"}, &out, &errb); code != 2 {
		t.Errorf("missing family/cross: exit %d, want 2", code)
	}
	if code := run([]string{"-unit", "iounit", "-family", "f", "-cross", "c"}, &out, &errb); code != 2 {
		t.Errorf("both family and cross: exit %d, want 2", code)
	}
	if code := run([]string{"-unit", "nope", "-family", "f"}, &out, &errb); code != 1 {
		t.Errorf("unknown unit: exit %d, want 1", code)
	}
	// A target the unit lacks is a bad flag value, like -engine bogus.
	if code := run(smallArgs("-unit", "iounit", "-family", "no_such"), &out, &errb); code != 2 {
		t.Errorf("unknown family: exit %d, want 2", code)
	}
	if code := run(smallArgs("-unit", "iounit", "-cross", "no_such"), &out, &errb); code != 2 {
		t.Errorf("unknown cross: exit %d, want 2", code)
	}
	// A negative budget is a bad flag value, not a request for the
	// default.
	errb.Reset()
	if code := run(smallArgs("-unit", "iounit", "-family", "crc_fifo", "-opt-sims", "-5"), &out, &errb); code != 2 ||
		!strings.Contains(errb.String(), "OptSims -5 is negative") {
		t.Errorf("-opt-sims -5: exit %d, stderr %q; want exit 2 naming the budget", code, errb.String())
	}
	// As on repro, a round count below 1 is refused, not run as one round.
	for _, rounds := range []string{"0", "-2"} {
		errb.Reset()
		if code := run(smallArgs("-unit", "iounit", "-family", "crc_fifo", "-rounds", rounds), &out, &errb); code != 2 ||
			!strings.Contains(errb.String(), "ascdg: -rounds "+rounds+": want at least 1") {
			t.Errorf("-rounds %s: exit %d, stderr %q; want exit 2", rounds, code, errb.String())
		}
	}
}

// TestDecayOutsideDomainIsAUsageError: -decay must lie in (0, 1]; any
// other value is refused before the corpus is simulated, not after.
func TestDecayOutsideDomainIsAUsageError(t *testing.T) {
	for _, decay := range []string{"1.5", "-0.2"} {
		var out, errb bytes.Buffer
		code := run(smallArgs("-unit", "iounit", "-family", "crc_fifo", "-decay", decay), &out, &errb)
		if code != 2 || !strings.Contains(errb.String(), "ascdg: decay "+decay+" outside (0, 1]") {
			t.Errorf("-decay %s: exit %d, stderr %q; want exit 2 naming the decay", decay, code, errb.String())
		}
		if out.Len() != 0 {
			t.Errorf("-decay %s: ran anyway:\n%s", decay, out.String())
		}
	}
}

func TestRepoSaveAndReuse(t *testing.T) {
	repoPath := filepath.Join(t.TempDir(), "corpus.json")
	var out, errb bytes.Buffer
	code := run(smallArgs("-unit", "l3cache", "-family", "byp_reqs", "-save-repo", repoPath), &out, &errb)
	if code != 0 {
		t.Fatalf("save run exit %d: %s", code, errb.String())
	}
	if !strings.Contains(out.String(), "repository saved") {
		t.Fatal("save confirmation missing")
	}
	// Second campaign reuses the corpus: its 'before' phase must report
	// more sims than a fresh corpus would have (it includes the first
	// campaign's harvest runs).
	out.Reset()
	code = run(smallArgs("-unit", "l3cache", "-family", "byp_reqs", "-load-repo", repoPath), &out, &errb)
	if code != 0 {
		t.Fatalf("load run exit %d: %s", code, errb.String())
	}
	if code := run(smallArgs("-unit", "l3cache", "-family", "byp_reqs", "-load-repo", "/no/file"), &out, &errb); code != 1 {
		t.Fatalf("bad load exit %d, want 1", code)
	}
	// Loading the l3cache corpus against another unit must fail.
	if code := run(smallArgs("-unit", "iounit", "-family", "crc_fifo", "-load-repo", repoPath), &out, &errb); code != 1 {
		t.Fatalf("cross-unit load exit %d, want 1", code)
	}
}
