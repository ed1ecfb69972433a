package main

import (
	"bytes"
	"context"
	"errors"
	"fmt"
	"os"
	"path/filepath"
	"strconv"
	"strings"
	"testing"

	"repro/internal/coverage"
	"repro/internal/duv/iounit"
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

// TestRegressParentGolden pins the suite queries' output to what the
// former regress command printed for the same flags, recorded in
// testdata/regress_parent.golden: one "$ regress <flags>" line, then
// that run's stdout. testdata/regress_parent_repo.json was saved by
// `tacquery -unit l3cache -sims 60 -seed 7 -save`.
func TestRegressParentGolden(t *testing.T) {
	want, err := os.ReadFile(filepath.Join("testdata", "regress_parent.golden"))
	if err != nil {
		t.Fatal(err)
	}
	var got bytes.Buffer
	for _, args := range []string{
		"-unit iounit -sims 100 -minimize",
		"-unit l3cache -sims 200 -minimize -policy 500 -focus-lightly",
		"-unit ifu -sims 50 -minimize -policy 2000",
		"-unit l3cache -load testdata/regress_parent_repo.json -minimize -policy 1000 -focus-lightly",
	} {
		got.WriteString("$ regress " + args + "\n")
		var errb bytes.Buffer
		if code := run(strings.Fields(args), &got, &errb); code != 0 {
			t.Fatalf("%s: exit %d: %s", args, code, errb.String())
		}
	}
	if got.String() != string(want) {
		t.Fatalf("suite queries drifted from regress_parent.golden:\n--- got ---\n%s--- want ---\n%s", got.String(), want)
	}
}

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
	// Once every focus event's miss probability underflows to 0 the
	// greedy allocation stops, and the output says how much of the
	// budget it left and why.
	out.Reset()
	if code := run([]string{"-unit", "ifu", "-sims", "50", "-policy", "2000"}, &out, &errb); code != 0 {
		t.Fatalf("exit %d: %s", code, errb.String())
	}
	allocated := 0
	for _, line := range strings.Split(out.String(), "\n") {
		if f := strings.Fields(line); len(f) == 3 && f[2] == "sims" {
			n, _ := strconv.Atoi(f[1])
			allocated += n
		}
	}
	want := fmt.Sprintf("allocated %d of 2000 simulations; %d left unallocated: no further simulation raises the chance of hitting a focus event\n", allocated, 2000-allocated)
	if allocated >= 2000 || !strings.HasSuffix(out.String(), want) {
		t.Fatalf("the policy's lines sum to %d; output lacks %q:\n%s", allocated, want, out.String())
	}
}

func TestPolicyFocusLightly(t *testing.T) {
	var out, errb bytes.Buffer
	code := run([]string{"-unit", "l3cache", "-sims", "200", "-policy", "500", "-focus-lightly"}, &out, &errb)
	if code != 0 {
		t.Fatalf("exit %d: %s", code, errb.String())
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
	// A repository is built or loaded, never checkpointed: there is no
	// corpus journal to write or resume.
	for _, c := range [][]string{{"-journal", filepath.Join(t.TempDir(), "jnl")}, {"-resume"}} {
		out.Reset()
		errb.Reset()
		args := append([]string{"-unit", "iounit", "-sims", "10", "-minimize", "-metrics"}, c...)
		if code := run(args, &out, &errb); code != 2 || !strings.Contains(errb.String(), "flag provided but not defined: "+c[0]) ||
			out.Len() != 0 || strings.Contains(errb.String(), "sim.instances_completed") {
			t.Errorf("%v: exit %d, stdout %q, stderr %q; want exit 2 as an undefined flag", c, code, out.String(), errb.String())
		}
	}
	// The flags that shape a corpus build change nothing beside -load, so
	// each is refused before anything is loaded or simulated.
	dir := t.TempDir()
	repo := filepath.Join(dir, "repo.json")
	if code := run([]string{"-unit", "iounit", "-sims", "10", "-save", repo}, &out, &errb); code != 0 {
		t.Fatalf("save exit %d: %s", code, errb.String())
	}
	for _, c := range [][]string{{"-sims", "5000"}, {"-seed", "9"}, {"-workers", "3"}} {
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
	// A saved repository is outside input: a template without
	// simulations, or an event hit more often than simulated, is refused
	// by name instead of printing a rate above 100 %.
	for _, c := range []struct{ sims, hits, want string }{
		{"0", "0", `tacquery: coverage: template "io_crc_stress" has no simulations`},
		{"50", "253", `tacquery: coverage: template "io_crc_stress" hits crc_004 253 times in 50 simulations`},
	} {
		m := iounit.New().Model()
		names := make([]string, m.Size())
		for id := range names {
			names[id] = m.Name(id)
		}
		doc := `{"events":["` + strings.Join(names, `","`) + `"],"templates":{"io_crc_stress":{"sims":` + c.sims +
			`,"hits":[` + c.hits + strings.Repeat(",0", m.Size()-1) + `]}}}`
		bad := filepath.Join(dir, "bad.json")
		if err := os.WriteFile(bad, []byte(doc), 0o644); err != nil {
			t.Fatal(err)
		}
		for _, query := range [][]string{{"-events", "crc_004"}, {"-minimize"}} {
			args := append([]string{"-unit", "iounit", "-load", bad}, query...)
			out.Reset()
			errb.Reset()
			if code := run(args, &out, &errb); code != 1 || !strings.Contains(errb.String(), c.want) || out.Len() != 0 {
				t.Errorf("%v with sims %s, hits %s: exit %d, stdout %q, stderr %q; want exit 1 with %q",
					args, c.sims, c.hits, code, out.String(), errb.String(), c.want)
			}
		}
	}
	// A run answers one query: a flag the chosen query would not read is
	// refused before the corpus is built, not dropped.
	for _, c := range []struct {
		args []string
		msg  string
	}{
		{[]string{"-uncovered", "-lightly"}, "-lightly changes nothing beside -uncovered"},
		{[]string{"-events", "crc_004", "-best", "2", "-ci", "-uncovered"}, "-best changes nothing beside -uncovered"},
		{[]string{"-events", "crc_004", "-best", "2", "-ci"}, "-ci changes nothing beside -best"},
		{[]string{"-events", "crc_004", "-uncovered"}, "-events changes nothing beside -uncovered"},
		{[]string{"-lightly", "-minimize"}, "-minimize changes nothing beside -lightly"},
		{[]string{"-minimize", "-ci"}, "-ci changes nothing beside -minimize"},
		{[]string{"-policy", "50", "-events", "crc_004"}, "-events changes nothing beside -policy"},
		{[]string{"-events", "crc_004", "-best", "2", "-policy", "50"}, "-policy changes nothing beside -best"},
	} {
		out.Reset()
		errb.Reset()
		args := append([]string{"-unit", "iounit", "-sims", "10", "-metrics"}, c.args...)
		if code := run(args, &out, &errb); code != 2 || !strings.Contains(errb.String(), "tacquery: "+c.msg+" (one query per run)") ||
			out.Len() != 0 || strings.Contains(errb.String(), "sim.instances_completed") {
			t.Errorf("%v: exit %d, stdout %q, stderr %q; want exit 2 with %q before any simulation", c.args, code, out.String(), errb.String(), c.msg)
		}
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

// TestCorpusFlags covers the flags that pick the repository: their
// defaults, -unit is required, -workers takes at most sim.MaxWorkers, and
// an interrupted build ends without a repository. TestErrors and
// TestSuiteErrors hold the -sims floor and the refusals beside -load.
func TestCorpusFlags(t *testing.T) {
	var out, errb bytes.Buffer
	if code := run([]string{"-h"}, &out, &errb); code != 2 {
		t.Fatalf("-h: exit %d, want 2", code)
	}
	for _, want := range []string{
		"-unit string", "-sims int\n", "(default 1000)", "-seed uint\n", "(default 1)", "-load string", "-workers int",
	} {
		if !strings.Contains(errb.String(), want) {
			t.Errorf("usage lacks %q:\n%s", want, errb.String())
		}
	}
	repo := filepath.Join(t.TempDir(), "repo.json")
	if err := coverage.NewRepository(iounit.New().Model()).SaveFile(repo); err != nil {
		t.Fatal(err)
	}
	for _, c := range []struct {
		args []string
		code int
		msg  string
	}{
		{[]string{}, 2, "tacquery: -unit is required"},
		{[]string{"-unit", "iounit", "-sims", "1"}, 0, ""},
		{[]string{"-unit", "iounit", "-sims", "1", "-workers", "1099511627776"}, 2,
			"tacquery: -workers 1099511627776: want at most 1024 (<= 0: GOMAXPROCS)"},
		{[]string{"-unit", "iounit", "-sims", "1", "-workers", "1024"}, 0, ""},
		{[]string{"-unit", "iounit", "-sims", "1", "-workers", "-1"}, 0, ""},
		{[]string{"-unit", "iounit", "-load", repo}, 0, ""},
	} {
		out.Reset()
		errb.Reset()
		if code := run(append(c.args, "-uncovered"), &out, &errb); code != c.code || !strings.Contains(errb.String(), c.msg) {
			t.Errorf("%q: exit %d, stderr %q; want exit %d with %q", c.args, code, errb.String(), c.code, c.msg)
		}
	}
	// An interrupted build ends with context.Canceled, which run reports
	// as "interrupted".
	ctx, cancel := context.WithCancel(context.Background())
	cancel()
	if repo, err := buildCorpus(ctx, iounit.New(), 1, 5, 1, nil); repo != nil || !errors.Is(err, context.Canceled) {
		t.Errorf("canceled build: repository %v, err %v; want none and context.Canceled", repo != nil, err)
	}
}

// TestSuiteErrors covers the suite queries' refusals: -minimize and
// -policy on an unknown unit or a missing -load file, budgets below
// their floor, -focus-lightly without -policy, the corpus-build flags
// beside -load, and the suite file that no longer exists.
func TestSuiteErrors(t *testing.T) {
	var out, errb bytes.Buffer
	if code := run([]string{"-unit", "nope", "-minimize"}, &out, &errb); code != 1 {
		t.Errorf("unknown unit: exit %d, want 1", code)
	}
	if code := run([]string{"-unit", "iounit", "-minimize", "-load", "/no/such/file"}, &out, &errb); code != 1 {
		t.Errorf("missing load file beside -minimize: exit %d, want 1", code)
	}
	// The suite queries' budgets below their floor are usage errors
	// naming the flag, and -focus-lightly only weights the policy: each
	// is refused before any simulation.
	for _, c := range []struct {
		args []string
		msg  string
	}{
		{[]string{"-minimize", "-policy", "-5"}, "tacquery: -policy -5: want at least 0"},
		{[]string{"-minimize", "-sims", "0"}, "tacquery: -sims 0: want at least 1"},
		{[]string{"-minimize", "-sims", "-3"}, "tacquery: -sims -3: want at least 1"},
		{[]string{"-minimize", "-focus-lightly"}, "tacquery: -focus-lightly requires -policy"},
	} {
		out.Reset()
		errb.Reset()
		args := append([]string{"-unit", "iounit", "-metrics"}, c.args...)
		if code := run(args, &out, &errb); code != 2 || !strings.Contains(errb.String(), c.msg) ||
			out.Len() != 0 || strings.Contains(errb.String(), "sim.instances_completed") {
			t.Errorf("%v: exit %d, stdout %q, stderr %q; want exit 2 with %q before any simulation", c.args, code, out.String(), errb.String(), c.msg)
		}
	}
	// The flags that shape a corpus build change nothing beside -load, so
	// each is refused before anything is loaded or simulated.
	dir := t.TempDir()
	repo := filepath.Join(dir, "repo.json")
	if err := coverage.NewRepository(iounit.New().Model()).SaveFile(repo); err != nil {
		t.Fatal(err)
	}
	for _, c := range [][]string{{"-sims", "5000"}, {"-seed", "9"}, {"-workers", "3"}} {
		out.Reset()
		errb.Reset()
		args := append([]string{"-unit", "iounit", "-load", repo, "-minimize", "-metrics"}, c...)
		if code := run(args, &out, &errb); code != 2 || !strings.Contains(errb.String(), "tacquery: "+c[0]+" changes nothing beside -load") ||
			out.Len() != 0 || strings.Contains(errb.String(), "sim.instances_completed") {
			t.Errorf("%v beside -load -minimize: exit %d, stdout %q, stderr %q; want exit 2 naming the flag", c, code, out.String(), errb.String())
		}
	}
	// There is no suite file: the suite is the saved repository.
	errb.Reset()
	if code := run([]string{"-unit", "iounit", "-minimize", "-out", filepath.Join(dir, "suite.json")}, &out, &errb); code != 2 ||
		!strings.Contains(errb.String(), "flag provided but not defined: -out") {
		t.Errorf("-out: exit %d, stderr %q; want exit 2 as an undefined flag", code, errb.String())
	}
}
