package main

import (
	"bytes"
	"os"
	"path/filepath"
	"strings"
	"testing"
)

func writeTemplate(t *testing.T) string {
	t.Helper()
	dir := t.TempDir()
	path := filepath.Join(dir, "lsu.tmpl")
	src := `
template lsu_stress {
    weight Mnemonic {
        load:  40;
        add:   0;
    }
    range CacheDelay [0 : 100];
}
`
	if err := os.WriteFile(path, []byte(src), 0o644); err != nil {
		t.Fatal(err)
	}
	return path
}

func TestRunProducesMarkedSkeleton(t *testing.T) {
	var out, errb bytes.Buffer
	code := run([]string{"-subranges", "2", writeTemplate(t)}, &out, &errb)
	if code != 0 {
		t.Fatalf("exit %d: %s", code, errb.String())
	}
	s := out.String()
	if !strings.Contains(s, "load:") || !strings.Contains(s, "<?>") {
		t.Fatalf("missing marks:\n%s", s)
	}
	if strings.Count(s, "<?>") != 3 { // load + 2 subranges
		t.Fatalf("marks = %d, want 3:\n%s", strings.Count(s, "<?>"), s)
	}
	for _, line := range strings.Split(s, "\n") {
		if strings.Contains(line, "add:") && strings.Contains(line, "<?>") {
			t.Fatalf("zero weight should stay unmarked:\n%s", s)
		}
	}
}

func TestRunSlotsFlag(t *testing.T) {
	var out, errb bytes.Buffer
	code := run([]string{"-slots", writeTemplate(t)}, &out, &errb)
	if code != 0 {
		t.Fatalf("exit %d", code)
	}
	if !strings.Contains(out.String(), "modifiable settings") {
		t.Fatal("slot listing missing")
	}
}

func TestRunErrors(t *testing.T) {
	var out, errb bytes.Buffer
	if code := run([]string{}, &out, &errb); code != 2 {
		t.Errorf("no args: exit %d, want 2", code)
	}
	// The split is always linear and zero weights always stay unmarked.
	for _, args := range [][]string{{"-mode", "geometric"}, {"-zero"}} {
		errb.Reset()
		if code := run(append(args, writeTemplate(t)), &out, &errb); code != 2 ||
			!strings.Contains(errb.String(), "flag provided but not defined") {
			t.Errorf("%v: exit %d, want 2 for an undefined flag: %s", args, code, errb.String())
		}
	}
	for _, n := range []string{"0", "-3"} {
		errb.Reset()
		if code := run([]string{"-subranges", n, writeTemplate(t)}, &out, &errb); code != 2 ||
			!strings.Contains(errb.String(), "skeletonize: -subranges "+n+": want at least 1") {
			t.Errorf("-subranges %s: exit %d, want 2 naming the flag: %s", n, code, errb.String())
		}
	}
	if code := run([]string{"/does/not/exist.tmpl"}, &out, &errb); code != 1 {
		t.Errorf("missing file: exit %d, want 1", code)
	}
	if code := run([]string{"-badflag"}, &out, &errb); code != 2 {
		t.Errorf("bad flag: exit %d, want 2", code)
	}
}
