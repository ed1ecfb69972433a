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
	// -knowledge only blends into -best scores: without -best it would
	// change nothing, so it is refused before the store is read or the
	// corpus built.
	out.Reset()
	errb.Reset()
	if code := run([]string{"-unit", "iounit", "-sims", "10", "-metrics", "-knowledge", t.TempDir()}, &out, &errb); code != 2 ||
		!strings.Contains(errb.String(), "tacquery: -knowledge requires -best") || out.Len() != 0 ||
		strings.Contains(errb.String(), "sim.instances_completed") {
		t.Errorf("-knowledge without -best: exit %d, stdout %q, stderr %q; want exit 2 before any simulation", code, out.String(), errb.String())
	}
	if code := run([]string{"-unit", "iounit", "-load", "/no/such/file"}, &out, &errb); code != 1 {
		t.Errorf("missing load file: exit %d, want 1", code)
	}
	// A -save path that cannot be written and a -knowledge store that
	// cannot be read are refused before the corpus is built, naming the
	// flag and the path.
	missing := filepath.Join(t.TempDir(), "no_such_dir")
	for _, c := range [][]string{{"-save", filepath.Join(missing, "r.json")}, {"-knowledge", missing}} {
		out.Reset()
		errb.Reset()
		args := append([]string{"-unit", "iounit", "-sims", "10", "-events", "crc_032", "-best", "2", "-metrics"}, c...)
		if code := run(args, &out, &errb); code != 1 || !strings.Contains(errb.String(), "tacquery: "+c[0]+" "+c[1]+": ") ||
			out.Len() != 0 || strings.Contains(errb.String(), "sim.instances_completed") {
			t.Errorf("%v: exit %d, stdout %q, stderr %q; want exit 1 before any simulation", c, code, out.String(), errb.String())
		}
	}
}
