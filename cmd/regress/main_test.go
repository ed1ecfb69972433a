package main

import (
	"bytes"
	"path/filepath"
	"strings"
	"testing"
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
	// An -out path that cannot be written is refused before the corpus
	// is built, naming the flag and the path.
	missing := filepath.Join(t.TempDir(), "no_such_dir", "suite.json")
	out.Reset()
	errb.Reset()
	if code := run([]string{"-unit", "iounit", "-sims", "10", "-minimize", "-metrics", "-out", missing}, &out, &errb); code != 1 ||
		!strings.Contains(errb.String(), "regress: -out "+missing+": ") ||
		out.Len() != 0 || strings.Contains(errb.String(), "sim.instances_completed") {
		t.Errorf("-out %s: exit %d, stdout %q, stderr %q; want exit 1 before any simulation", missing, code, out.String(), errb.String())
	}
}
