package main

import (
	"bytes"
	"path/filepath"
	"strings"
	"testing"
)

func TestReportDefault(t *testing.T) {
	var out, errb bytes.Buffer
	code := run([]string{"-unit", "iounit", "-sims", "50"}, &out, &errb)
	if code != 0 {
		t.Fatalf("exit %d: %s", code, errb.String())
	}
	s := out.String()
	for _, want := range []string{"crc_004", "crc_096", "status", "best template"} {
		if !strings.Contains(s, want) {
			t.Errorf("report missing %q", want)
		}
	}
}

func TestUncoveredList(t *testing.T) {
	var out, errb bytes.Buffer
	code := run([]string{"-unit", "iounit", "-sims", "50", "-uncovered"}, &out, &errb)
	if code != 0 {
		t.Fatalf("exit %d: %s", code, errb.String())
	}
	if !strings.Contains(out.String(), "crc_096") {
		t.Fatalf("crc_096 should be uncovered at 50 sims/template:\n%s", out.String())
	}
}

func TestLightlyList(t *testing.T) {
	var out, errb bytes.Buffer
	if code := run([]string{"-unit", "iounit", "-sims", "50", "-lightly"}, &out, &errb); code != 0 {
		t.Fatalf("exit %d: %s", code, errb.String())
	}
}

func TestBestTemplatesQuery(t *testing.T) {
	var out, errb bytes.Buffer
	code := run([]string{"-unit", "iounit", "-sims", "100",
		"-events", "crc_008,crc_016", "-best", "2"}, &out, &errb)
	if code != 0 {
		t.Fatalf("exit %d: %s", code, errb.String())
	}
	if !strings.Contains(out.String(), "io_crc_stress") {
		t.Fatalf("coarse search should rank io_crc_stress first:\n%s", out.String())
	}
}

func TestSaveAndLoad(t *testing.T) {
	path := filepath.Join(t.TempDir(), "repo.json")
	var out, errb bytes.Buffer
	if code := run([]string{"-unit", "iounit", "-sims", "30", "-save", path}, &out, &errb); code != 0 {
		t.Fatalf("save exit %d: %s", code, errb.String())
	}
	out.Reset()
	if code := run([]string{"-unit", "iounit", "-load", path}, &out, &errb); code != 0 {
		t.Fatalf("load exit %d: %s", code, errb.String())
	}
	if !strings.Contains(out.String(), "crc_004") {
		t.Fatal("loaded report empty")
	}
	// Loading against the wrong unit must fail.
	if code := run([]string{"-unit", "l3cache", "-load", path}, &out, &errb); code != 1 {
		t.Fatalf("wrong-unit load exit %d, want 1", code)
	}
}

func TestErrors(t *testing.T) {
	var out, errb bytes.Buffer
	if code := run([]string{}, &out, &errb); code != 2 {
		t.Errorf("missing unit: exit %d, want 2", code)
	}
	if code := run([]string{"-unit", "nope"}, &out, &errb); code != 1 {
		t.Errorf("unknown unit: exit %d, want 1", code)
	}
	if code := run([]string{"-unit", "iounit", "-sims", "10", "-events", "zzz"}, &out, &errb); code != 1 {
		t.Errorf("unknown event: exit %d, want 1", code)
	}
	if code := run([]string{"-unit", "iounit", "-sims", "10", "-best", "2"}, &out, &errb); code != 2 {
		t.Errorf("-best without -events: exit %d, want 2", code)
	}
	// A negative count is refused, not read as "no query".
	out.Reset()
	errb.Reset()
	if code := run([]string{"-unit", "iounit", "-sims", "10", "-events", "crc_032", "-best", "-3"}, &out, &errb); code != 2 ||
		!strings.Contains(errb.String(), "tacquery: -best -3: want at least 0") || out.Len() != 0 {
		t.Errorf("-best -3: exit %d, stdout %q, stderr %q; want exit 2 naming the flag", code, out.String(), errb.String())
	}
	// -best without -events is refused before the corpus is built, also
	// beside a listing query that would otherwise ignore it.
	for _, list := range []string{"-uncovered", "-lightly"} {
		out.Reset()
		errb.Reset()
		if code := run([]string{"-unit", "iounit", "-sims", "10", list, "-best", "2"}, &out, &errb); code != 2 ||
			!strings.Contains(errb.String(), "-best requires -events") || out.Len() != 0 {
			t.Errorf("%s -best 2 without -events: exit %d, stdout %q, stderr %q; want exit 2", list, code, out.String(), errb.String())
		}
	}
	// The ranking reads only the corpus: there is no knowledge store to
	// blend in.
	out.Reset()
	errb.Reset()
	if code := run([]string{"-unit", "iounit", "-sims", "10", "-events", "crc_032", "-best", "2", "-knowledge", t.TempDir()}, &out, &errb); code != 2 ||
		!strings.Contains(errb.String(), "flag provided but not defined: -knowledge") || out.Len() != 0 {
		t.Errorf("-knowledge: exit %d, stdout %q, stderr %q; want exit 2 as an undefined flag", code, out.String(), errb.String())
	}
	// The flags that shape a corpus build change nothing beside -load, so
	// each is refused before anything is loaded or simulated.
	dir := t.TempDir()
	repo := filepath.Join(dir, "repo.json")
	if code := run([]string{"-unit", "iounit", "-sims", "10", "-save", repo}, &out, &errb); code != 0 {
		t.Fatalf("save exit %d: %s", code, errb.String())
	}
	for _, c := range [][]string{
		{"-journal", filepath.Join(dir, "jnl")}, {"-resume"}, {"-sims", "5000"}, {"-seed", "9"}, {"-workers", "3"},
	} {
		out.Reset()
		errb.Reset()
		args := append([]string{"-unit", "iounit", "-load", repo, "-uncovered", "-metrics"}, c...)
		if code := run(args, &out, &errb); code != 2 || !strings.Contains(errb.String(), "tacquery: "+c[0]+" changes nothing beside -load") ||
			out.Len() != 0 || strings.Contains(errb.String(), "sim.instances_completed") {
			t.Errorf("%v beside -load: exit %d, stdout %q, stderr %q; want exit 2 naming the flag", c, code, out.String(), errb.String())
		}
	}
	if code := run([]string{"-unit", "iounit", "-load", "/no/such/file"}, &out, &errb); code != 1 {
		t.Errorf("missing load file: exit %d, want 1", code)
	}
	// A -save path that cannot be written is refused before the corpus
	// is built, naming the flag and the path.
	missing := filepath.Join(t.TempDir(), "no_such_dir", "r.json")
	out.Reset()
	errb.Reset()
	args := []string{"-unit", "iounit", "-sims", "10", "-events", "crc_032", "-best", "2", "-metrics", "-save", missing}
	if code := run(args, &out, &errb); code != 1 || !strings.Contains(errb.String(), "tacquery: -save "+missing+": ") ||
		out.Len() != 0 || strings.Contains(errb.String(), "sim.instances_completed") {
		t.Errorf("-save %s: exit %d, stdout %q, stderr %q; want exit 1 before any simulation", missing, code, out.String(), errb.String())
	}
}
