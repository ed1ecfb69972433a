package cli

import (
	"bytes"
	"context"
	"flag"
	"io"
	"maps"
	"os"
	"path/filepath"
	"regexp"
	"strings"
	"testing"

	"repro/internal/duv/iounit"
	"repro/internal/failpoint"
)

// stepCase is one command line for a group: the exit code its step must
// return and a fragment its output must contain ("" for none).
type stepCase struct {
	args []string
	code int
	out  string
}

// register registers g on a fresh flag set named "cmd" whose output is
// returned, and parses args into it.
func register(t *testing.T, g Group, args []string) *bytes.Buffer {
	t.Helper()
	fs := flag.NewFlagSet("cmd", flag.ContinueOnError)
	var out bytes.Buffer
	fs.SetOutput(&out)
	g.Register(fs)
	if err := fs.Parse(args); err != nil {
		t.Fatalf("parse %q: %v", args, err)
	}
	return &out
}

// checkDefaults asserts g registers exactly the flags of want, with
// those defaults.
func checkDefaults(t *testing.T, g Group, want map[string]string) {
	t.Helper()
	fs := flag.NewFlagSet("cmd", flag.ContinueOnError)
	g.Register(fs)
	got := map[string]string{}
	fs.VisitAll(func(f *flag.Flag) { got[f.Name] = f.DefValue })
	if !maps.Equal(got, want) {
		t.Fatalf("flags and defaults = %v, want %v", got, want)
	}
}

// checkStep runs step on a group parsed from each case's args.
func checkStep[T any, G interface {
	*T
	Group
}](t *testing.T, step func(G) int, cases []stepCase) {
	t.Helper()
	for _, tc := range cases {
		g := G(new(T))
		out := register(t, g, tc.args)
		if code := step(g); code != tc.code {
			t.Errorf("%q: exit %d, want %d; output:\n%s", tc.args, code, tc.code, out)
		}
		if !strings.Contains(out.String(), tc.out) {
			t.Errorf("%q: output lacks %q:\n%s", tc.args, tc.out, out)
		}
	}
}

func TestParse(t *testing.T) {
	for _, tc := range []struct {
		args       []string
		code       int
		done       bool
		stdoutPart string
	}{
		{nil, 0, false, ""},
		{[]string{"-version"}, 0, true, "cmd version "},
		{[]string{"-no-such-flag"}, 2, true, ""},
		{[]string{"-h"}, 2, true, ""},
	} {
		fs := flag.NewFlagSet("cmd", flag.ContinueOnError)
		fs.SetOutput(io.Discard)
		var stdout bytes.Buffer
		code, done := Parse(fs, tc.args, &stdout, &Obs{})
		if code != tc.code || done != tc.done || !strings.HasPrefix(stdout.String(), tc.stdoutPart) {
			t.Errorf("%q: (%d, %v) stdout %q; want (%d, %v) and %q",
				tc.args, code, done, stdout.String(), tc.code, tc.done, tc.stdoutPart)
		}
		if fs.Lookup("trace") == nil {
			t.Errorf("%q: Parse did not register the groups", tc.args)
		}
	}
}

func TestObs(t *testing.T) {
	checkDefaults(t, &Obs{}, map[string]string{"trace": "", "progress": "false", "metrics": "false", "debug-addr": ""})
	checkStep(t, func(o *Obs) int {
		rec, stop, code := o.Start(nil)
		if code == 0 {
			off := o.trace == "" && !o.progress && !o.metrics && o.debugAddr == ""
			if (rec == nil) != off {
				t.Errorf("every sink off: %v, but recorder %v", off, rec)
			}
			stop()
		}
		return code
	}, []stepCase{
		{nil, 0, ""},
		{[]string{"-metrics"}, 0, "metrics summary"},
		{[]string{"-debug-addr", "127.0.0.1:0"}, 0, "debug endpoint on http://127.0.0.1:"},
		{[]string{"-debug-addr", "256.0.0.1:bogus"}, 1, "cmd: obs: debug server"},
	})
}

func TestFarm(t *testing.T) {
	checkDefaults(t, &Farm{}, map[string]string{"farm": "", "farm-retry": "", "hedge": "0", "audit-fraction": "0"})
	checkStep(t, func(f *Farm) int {
		d, _, code := f.Dial(nil, nil)
		if d != nil {
			t.Errorf("a dispatcher from %+v", f)
			d.Close()
		}
		return code
	}, []stepCase{
		{nil, 0, ""},
		// -farm-retry tunes a farm; without one it is not read.
		{[]string{"-farm-retry", "bogus"}, 0, ""},
		{[]string{"-farm", "127.0.0.1:1", "-farm-retry", "bogus"}, 2, "cmd: farm: retry spec"},
		{[]string{"-farm", "127.0.0.1:1", "-farm-retry", "attempts=0"}, 2, "cmd: farm: retry spec attempts"},
		// A multiplier that does not convert to a duration once hedged
		// every exchange after 1ms.
		{[]string{"-farm", "127.0.0.1:1", "-hedge", "NaN"}, 2, "cmd: farm: hedge NaN"},
		{[]string{"-farm", "127.0.0.1:1", "-hedge", "+Inf"}, 2, "cmd: farm: hedge +Inf"},
		{[]string{"-farm", "127.0.0.1:1", "-hedge", "-1"}, 2, "cmd: farm: hedge -1"},
		{[]string{"-farm", "127.0.0.1:1", "-audit-fraction", "NaN"}, 2, "cmd: farm: audit fraction NaN"},
		{[]string{"-farm", "127.0.0.1:1", "-audit-fraction", "2"}, 2, "cmd: farm: audit fraction 2"},
		{[]string{"-farm", "127.0.0.1:1", "-audit-fraction", "-0.5"}, 2, "cmd: farm: audit fraction -0.5"},
	})
}

func TestFaults(t *testing.T) {
	t.Setenv("ASCDG_FAILPOINTS", "farm/dial=error:0.5")
	checkDefaults(t, &Faults{}, map[string]string{"failpoints": "farm/dial=error:0.5"})
	t.Setenv("ASCDG_FAILPOINTS", "")
	t.Cleanup(failpoint.Default.Reset)
	checkStep(t, (*Faults).Arm, []stepCase{
		{nil, 0, ""},
		{[]string{"-failpoints", "cli/test=error"}, 0, ""},
		{[]string{"-failpoints", "cli/test"}, 2, "cmd: failpoint: malformed spec entry"},
		{[]string{"-failpoints", "cli/test=sometimes"}, 2, "cmd: failpoint:"},
	})
}

func TestLog(t *testing.T) {
	checkDefaults(t, &Log{}, map[string]string{"log-level": "info", "log-format": "text"})
	checkStep(t, func(l *Log) int {
		_, code := l.New()
		return code
	}, []stepCase{
		{nil, 0, ""},
		{[]string{"-log-level", "debug", "-log-format", "json"}, 0, ""},
		{[]string{"-log-level", "loud"}, 2, "cmd: "},
		{[]string{"-log-format", "xml"}, 2, `cmd: invalid log format "xml"`},
	})
}

func TestProfile(t *testing.T) {
	checkDefaults(t, &Profile{}, map[string]string{"cpuprofile": "", "memprofile": ""})
	missing := filepath.Join(t.TempDir(), "missing")
	checkStep(t, func(p *Profile) int {
		stop, code := p.Start()
		if code == 0 {
			stop()
		}
		return code
	}, []stepCase{
		{nil, 0, ""},
		{[]string{"-cpuprofile", filepath.Join(missing, "cpu.prof")}, 1, "cmd: profiling: create cpu profile"},
		// The heap profile is written at stop, which reports its failure.
		{[]string{"-memprofile", filepath.Join(missing, "mem.prof")}, 0, "cmd: profiling: create mem profile"},
	})
}

func TestJournal(t *testing.T) {
	checkDefaults(t, &Journal{}, map[string]string{"journal": "", "resume": "false"})
	checkStep(t, func(j *Journal) int {
		code := j.Check()
		if code == 0 {
			j.Interrupted("run")
		}
		return code
	}, []stepCase{
		{nil, 0, "cmd: interrupted"},
		{[]string{"-resume"}, 2, "cmd: -resume requires -journal"},
		{[]string{"-journal", "j", "-resume"}, 0,
			"cmd: run checkpointed; continue with: cmd -resume -journal j (plus the same flags)"},
	})
}

// TestJournalRule: ascdg (Journal.Prepare) and regress and tacquery
// (Corpus.Build) follow one -journal/-resume rule with one message:
// -resume needs an existing journal, and -journal without -resume starts
// over whatever stale file is there.
func TestJournalRule(t *testing.T) {
	dir := t.TempDir()
	missing := filepath.Join(dir, "missing.journal")
	stale := filepath.Join(dir, "stale.journal")
	build := func(fs *flag.FlagSet, args []string) int {
		var c Corpus
		c.Register(fs)
		fs.Parse(append([]string{"-sims", "5"}, args...))
		repo, code := c.Build(context.Background(), iounit.New(), nil)
		if (repo != nil) != (code == 0) {
			t.Errorf("%q: repository %v with exit %d", args, repo != nil, code)
		}
		return code
	}
	prepare := func(fs *flag.FlagSet, args []string) int {
		var j Journal
		j.Register(fs)
		fs.Parse(args)
		return j.Prepare()
	}
	for _, cmd := range []struct {
		name string
		step func(*flag.FlagSet, []string) int
	}{{"ascdg", prepare}, {"regress", build}, {"tacquery", build}} {
		for _, tc := range []stepCase{
			{[]string{"-journal", missing, "-resume"}, 1, cmd.name + ": -resume: no journal at " + missing + "\n"},
			{[]string{"-journal", stale}, 0, ""},
		} {
			if err := os.WriteFile(stale, []byte("a stale run's journal"), 0o644); err != nil {
				t.Fatal(err)
			}
			fs := flag.NewFlagSet(cmd.name, flag.ContinueOnError)
			var out bytes.Buffer
			fs.SetOutput(&out)
			if code := cmd.step(fs, tc.args); code != tc.code || !strings.Contains(out.String(), tc.out) {
				t.Errorf("%s %q: exit %d, output %q; want exit %d, output with %q", cmd.name, tc.args, code, out.String(), tc.code, tc.out)
			}
			if _, err := os.Stat(missing); err == nil {
				t.Errorf("%s %q: -resume created the missing journal", cmd.name, tc.args)
			}
			if data, _ := os.ReadFile(stale); tc.code == 0 && string(data) == "a stale run's journal" {
				t.Errorf("%s %q: the stale journal is still there", cmd.name, tc.args)
			}
		}
	}
}

func TestWorkers(t *testing.T) {
	checkDefaults(t, new(Workers), map[string]string{"workers": "0"})
}

func TestCorpus(t *testing.T) {
	checkDefaults(t, &Corpus{}, map[string]string{
		"unit": "", "sims": "1000", "seed": "1", "load": "", "workers": "0", "journal": "", "resume": "false",
	})
	checkStep(t, (*Corpus).Check, []stepCase{
		{nil, 2, "cmd: -unit is required"},
		{[]string{"-unit", "iounit", "-resume"}, 2, "cmd: -resume requires -journal"},
		{[]string{"-unit", "iounit"}, 0, ""},
	})

	canceled, cancel := context.WithCancel(context.Background())
	cancel()
	journal := filepath.Join(t.TempDir(), "corpus.journal")
	for _, tc := range []struct {
		ctx  context.Context
		args []string
		repo bool
		code int
		out  string
	}{
		{context.Background(), []string{"-sims", "5"}, true, 0, ""},
		{context.Background(), []string{"-load", "/no/such/repo.json"}, false, 1, "cmd: "},
		{canceled, []string{"-sims", "5", "-journal", journal}, false, 0,
			"cmd: build checkpointed; continue with: cmd -resume -journal " + journal},
	} {
		var c Corpus
		out := register(t, &c, tc.args)
		repo, code := c.Build(tc.ctx, iounit.New(), nil)
		if (repo != nil) != tc.repo || code != tc.code || !strings.Contains(out.String(), tc.out) {
			t.Errorf("%q: repository %v, exit %d, output %q; want repository %v, exit %d, output with %q",
				tc.args, repo != nil, code, out, tc.repo, tc.code, tc.out)
		}
	}
}

// TestREADMEHasEveryFlag keeps README's flag table complete: every flag
// this package registers has a row whose first cell names it.
func TestREADMEHasEveryFlag(t *testing.T) {
	readme, err := os.ReadFile(filepath.Join("..", "..", "README.md"))
	if err != nil {
		t.Fatal(err)
	}
	fs := flag.NewFlagSet("cmd", flag.ContinueOnError)
	Parse(fs, nil, io.Discard, &Obs{}, &Farm{}, &Faults{}, &Log{}, &Profile{}, &Corpus{})
	fs.VisitAll(func(f *flag.Flag) {
		row := regexp.MustCompile("(?m)^\\| [^|]*`-" + regexp.QuoteMeta(f.Name) + "[` ]")
		if !row.Match(readme) {
			t.Errorf("README.md has no flag-table row for -%s", f.Name)
		}
	})
}
