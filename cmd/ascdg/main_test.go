package main

import (
	"bytes"
	"os"
	"path/filepath"
	"strings"
	"testing"
	"time"

	"repro/internal/coverage"
	"repro/internal/duv/iounit"
	"repro/internal/duv/l3cache"
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
	// The search is an engine name over the budget flags: an unregistered
	// name is refused, and engine knobs are not flags.
	errb.Reset()
	if code := run(smallArgs("-unit", "iounit", "-family", "crc_fifo", "-engine", "bogus"), &out, &errb); code != 2 ||
		!strings.Contains(errb.String(), `ascdg: unknown engine "bogus"`) {
		t.Errorf("-engine bogus: exit %d, stderr %q; want exit 2 listing the engines", code, errb.String())
	}
	errb.Reset()
	if code := run(smallArgs("-unit", "iounit", "-family", "crc_fifo", "-engine-params", "{}"), &out, &errb); code != 2 ||
		!strings.Contains(errb.String(), "flag provided but not defined: -engine-params") {
		t.Errorf("-engine-params: exit %d, stderr %q; want exit 2 for an undefined flag", code, errb.String())
	}
	// Faults are injected through the farm's test transport and the
	// journal writer, not armed from the command line.
	errb.Reset()
	if code := run(smallArgs("-unit", "iounit", "-family", "crc_fifo", "-failpoints", "journal/append=error"), &out, &errb); code != 2 ||
		!strings.Contains(errb.String(), "flag provided but not defined: -failpoints") {
		t.Errorf("-failpoints: exit %d, stderr %q; want exit 2 for an undefined flag", code, errb.String())
	}
	// As on repro, a round count below 1 is refused, not run as one round.
	for _, rounds := range []string{"0", "-2"} {
		errb.Reset()
		if code := run(smallArgs("-unit", "iounit", "-family", "crc_fifo", "-rounds", rounds), &out, &errb); code != 2 ||
			!strings.Contains(errb.String(), "ascdg: -rounds "+rounds+": want at least 1") {
			t.Errorf("-rounds %s: exit %d, stderr %q; want exit 2", rounds, code, errb.String())
		}
	}
	// A cross target runs one round: more is refused, not dropped.
	errb.Reset()
	if code := run(smallArgs("-unit", "ifu", "-cross", "ifu", "-rounds", "3"), &out, &errb); code != 2 ||
		!strings.Contains(errb.String(), "ascdg: rounds 3: only a family target runs more than one round") {
		t.Errorf("-cross ifu -rounds 3: exit %d, stderr %q; want exit 2", code, errb.String())
	}
	// A cross target has no ordinal distance: an explicit -decay is
	// refused, not dropped; -decay's default is passed only with -family.
	errb.Reset()
	if code := run(smallArgs("-unit", "ifu", "-cross", "ifu", "-decay", "0.4"), &out, &errb); code != 2 ||
		!strings.Contains(errb.String(), "ascdg: decay 0.4: only a family target is weighted by decay") {
		t.Errorf("-cross ifu -decay 0.4: exit %d, stderr %q; want exit 2", code, errb.String())
	}
	// An output path that cannot be written is refused before the
	// campaign is paid for, naming the flag and the path.
	dir := t.TempDir()
	missing := filepath.Join(dir, "no_such_dir", "x")
	for _, c := range [][]string{{"-out", missing}, {"-save-repo", missing}, {"-out", dir}} {
		out.Reset()
		errb.Reset()
		code := run(smallArgs(append([]string{"-unit", "iounit", "-family", "crc_fifo", "-metrics"}, c...)...), &out, &errb)
		if code != 1 || !strings.Contains(errb.String(), "ascdg: "+c[0]+" "+c[1]+": ") ||
			out.Len() != 0 || strings.Contains(errb.String(), "sim.instances_completed") {
			t.Errorf("%v: exit %d, stdout %q, stderr %q; want exit 1 before any simulation", c, code, out.String(), errb.String())
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
	// The saved corpus is what tacquery -load and regress -load read:
	// it loads against its own unit's model and no other.
	if _, err := coverage.LoadFile(repoPath, l3cache.New().Model()); err != nil {
		t.Fatalf("saved corpus does not load: %v", err)
	}
	if _, err := coverage.LoadFile(repoPath, iounit.New().Model()); err == nil {
		t.Fatal("the l3cache corpus loaded against the iounit model")
	}
	// A flow's corpus is built, replayed or cached, never loaded: the
	// flag that loaded one is gone.
	errb.Reset()
	if code := run(smallArgs("-unit", "l3cache", "-family", "byp_reqs", "-load-repo", repoPath), &out, &errb); code != 2 ||
		!strings.Contains(errb.String(), "flag provided but not defined: -load-repo") {
		t.Fatalf("-load-repo: exit %d, stderr %q; want exit 2 for an undefined flag", code, errb.String())
	}
}

// TestFarmFlagDoesNotWait: a -farm fleet no dial reaches changes neither
// the output nor, beyond a second, the run time. Chunks fall back to
// local execution while no worker is connected, so the command starts
// at once instead of waiting for one.
func TestFarmFlagDoesNotWait(t *testing.T) {
	args := []string{"-unit", "iounit", "-family", "crc_fifo", "-seed", "3",
		"-corpus", "40", "-samples", "6", "-sample-sims", "8", "-iterations", "3",
		"-directions", "3", "-opt-sims", "10", "-best-sims", "60", "-workers", "2"}
	campaign := func(extra ...string) (string, time.Duration) {
		var out, errb bytes.Buffer
		start := time.Now()
		if code := run(append(args, extra...), &out, &errb); code != 0 {
			t.Fatalf("exit %d: %s", code, errb.String())
		}
		return out.String(), time.Since(start)
	}
	local, localTook := campaign()
	farmed, took := campaign("-farm", "127.0.0.1:1")
	if farmed != local {
		t.Fatalf("-farm 127.0.0.1:1 changed stdout:\n%s\nwant:\n%s", farmed, local)
	}
	if took > localTook+time.Second {
		t.Fatalf("-farm 127.0.0.1:1 took %v against %v without -farm: the command waited for the fleet", took, localTook)
	}
}
