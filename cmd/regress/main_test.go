package main

import (
	"bytes"
	"path/filepath"
	"strings"
	"testing"

	"repro/internal/coverage"
	"repro/internal/duv/iounit"
)

func TestMinimize(t *testing.T) {
	var out, errb bytes.Buffer
	code := run([]string{"-unit", "iounit", "-sims", "100", "-minimize"}, &out, &errb)
	if code != 0 {
		t.Fatalf("exit %d: %s", code, errb.String())
	}
	if !strings.Contains(out.String(), "minimal covering suite") {
		t.Fatalf("output:\n%s", out.String())
	}
}

func TestPolicy(t *testing.T) {
	var out, errb bytes.Buffer
	code := run([]string{"-unit", "l3cache", "-sims", "100", "-policy", "500"}, &out, &errb)
	if code != 0 {
		t.Fatalf("exit %d: %s", code, errb.String())
	}
	if !strings.Contains(out.String(), "policy for 500 simulations") {
		t.Fatalf("output:\n%s", out.String())
	}
}

func TestPolicyFocusLightly(t *testing.T) {
	var out, errb bytes.Buffer
	code := run([]string{"-unit", "l3cache", "-sims", "200", "-policy", "500", "-focus-lightly"}, &out, &errb)
	if code != 0 {
		t.Fatalf("exit %d: %s", code, errb.String())
	}
}

func TestErrors(t *testing.T) {
	var out, errb bytes.Buffer
	if code := run([]string{}, &out, &errb); code != 2 {
		t.Errorf("missing unit: exit %d", code)
	}
	if code := run([]string{"-unit", "iounit"}, &out, &errb); code != 2 {
		t.Errorf("missing action: exit %d", code)
	}
	if code := run([]string{"-unit", "nope", "-minimize"}, &out, &errb); code != 1 {
		t.Errorf("unknown unit: exit %d", code)
	}
	if code := run([]string{"-unit", "iounit", "-minimize", "-load", "/no/file"}, &out, &errb); code != 1 {
		t.Errorf("bad load: exit %d", code)
	}
	// Budgets below their floor are usage errors naming the flag, refused
	// before any simulation.
	for _, c := range []struct {
		args []string
		msg  string
	}{
		{[]string{"-unit", "iounit", "-minimize", "-policy", "-5"}, "regress: -policy -5: want at least 0"},
		{[]string{"-unit", "iounit", "-minimize", "-sims", "0"}, "regress: -sims 0: want at least 1"},
		{[]string{"-unit", "iounit", "-minimize", "-sims", "-3"}, "regress: -sims -3: want at least 1"},
	} {
		errb.Reset()
		if code := run(c.args, &out, &errb); code != 2 || !strings.Contains(errb.String(), c.msg) {
			t.Errorf("%v: exit %d, want 2 with %q: %s", c.args, code, c.msg, errb.String())
		}
	}
	// -focus-lightly only weights the policy: without -policy it would
	// change nothing, so it is refused before the corpus is built.
	out.Reset()
	errb.Reset()
	if code := run([]string{"-unit", "iounit", "-sims", "10", "-minimize", "-metrics", "-focus-lightly"}, &out, &errb); code != 2 ||
		!strings.Contains(errb.String(), "regress: -focus-lightly requires -policy") || out.Len() != 0 ||
		strings.Contains(errb.String(), "sim.instances_completed") {
		t.Errorf("-focus-lightly without -policy: exit %d, stdout %q, stderr %q; want exit 2 before any simulation", code, out.String(), errb.String())
	}
	// The flags that shape a corpus build change nothing beside -load, so
	// each is refused before anything is loaded or simulated.
	dir := t.TempDir()
	repo := filepath.Join(dir, "repo.json")
	if err := coverage.NewRepository(iounit.New().Model()).SaveFile(repo); err != nil {
		t.Fatal(err)
	}
	for _, c := range [][]string{
		{"-journal", filepath.Join(dir, "jnl")}, {"-resume"}, {"-sims", "5000"}, {"-seed", "9"}, {"-workers", "3"},
	} {
		out.Reset()
		errb.Reset()
		args := append([]string{"-unit", "iounit", "-load", repo, "-minimize", "-metrics"}, c...)
		if code := run(args, &out, &errb); code != 2 || !strings.Contains(errb.String(), "regress: "+c[0]+" changes nothing beside -load") ||
			out.Len() != 0 || strings.Contains(errb.String(), "sim.instances_completed") {
			t.Errorf("%v beside -load: exit %d, stdout %q, stderr %q; want exit 2 naming the flag", c, code, out.String(), errb.String())
		}
	}
	// The suite file format is gone: the corpus statistics are the
	// repository tacquery -save and ascdg -save-repo write, and the
	// template bodies are the unit's built-ins.
	errb.Reset()
	if code := run([]string{"-unit", "iounit", "-minimize", "-out", filepath.Join(dir, "suite.json")}, &out, &errb); code != 2 ||
		!strings.Contains(errb.String(), "flag provided but not defined: -out") {
		t.Errorf("-out: exit %d, stderr %q; want exit 2 as an undefined flag", code, errb.String())
	}
}

// TestJournalResumeFlags: -resume without -journal is a usage error; a
// journaled build followed by a resumed one yields the same output.
func TestJournalResumeFlags(t *testing.T) {
	var out, errb bytes.Buffer
	if code := run([]string{"-unit", "iounit", "-minimize", "-resume"}, &out, &errb); code != 2 {
		t.Fatalf("-resume without -journal: exit %d, want 2", code)
	}
	jpath := filepath.Join(t.TempDir(), "corpus.journal")
	var first, second bytes.Buffer
	if code := run([]string{"-unit", "iounit", "-sims", "100", "-minimize", "-journal", jpath}, &first, &errb); code != 0 {
		t.Fatalf("journaled run exit %d: %s", code, errb.String())
	}
	if code := run([]string{"-unit", "iounit", "-sims", "100", "-minimize", "-journal", jpath, "-resume"}, &second, &errb); code != 0 {
		t.Fatalf("resumed run exit %d: %s", code, errb.String())
	}
	if first.String() != second.String() {
		t.Fatal("resumed build's output diverged")
	}
}
