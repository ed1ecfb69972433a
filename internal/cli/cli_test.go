package cli

import (
	"bytes"
	"context"
	"encoding/json"
	"flag"
	"go/ast"
	"go/parser"
	"go/token"
	"io"
	"maps"
	"net/http"
	"os"
	"path/filepath"
	"regexp"
	"strconv"
	"strings"
	"testing"

	"repro/internal/duv/iounit"
	"repro/internal/obs"
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
	dir := t.TempDir()
	trace, missing := filepath.Join(dir, "trace.json"), filepath.Join(dir, "missing", "trace.json")
	banner := regexp.MustCompile(`debug endpoint on http://(\S+)/debug/pprof/`)
	checkStep(t, func(o *Obs) int {
		out := o.fs.Output().(*bytes.Buffer)
		rec, stop, code := o.Start(nil)
		if code != 0 {
			return code
		}
		off := o.trace == "" && !o.progress && !o.metrics && o.debugAddr == ""
		if (rec == nil) != off {
			t.Errorf("every sink off: %v, but recorder %v", off, rec)
		}
		rec.PhaseStart("corpus", nil).End(nil)
		rec.Counter("sim.jobs").Add(2)
		var addr string
		if m := banner.FindStringSubmatch(out.String()); m != nil {
			addr = m[1]
			resp, err := http.Get("http://" + addr + "/metrics")
			if err != nil {
				t.Errorf("debug server not serving during the run: %v", err)
			} else {
				resp.Body.Close()
			}
		}
		stop()
		if off && out.Len() != 0 {
			t.Errorf("every sink off, but output %q", out)
		}
		if addr != "" {
			if _, err := http.Get("http://" + addr + "/metrics"); err == nil {
				t.Errorf("debug server on %s still listening after stop", addr)
			}
		}
		if o.trace == trace {
			var events []obs.TraceEvent
			data, err := os.ReadFile(trace)
			if err == nil {
				err = json.Unmarshal(data, &events)
			}
			if err != nil || len(events) != 1 || events[0].Name != "corpus" {
				t.Errorf("trace file %q, %v: want the one corpus span", data, err)
			}
		}
		return code
	}, []stepCase{
		{nil, 0, ""},
		{[]string{"-trace", trace}, 0, ""},
		{[]string{"-progress"}, 0, `"event":"phase_start"`},
		{[]string{"-metrics"}, 0, "sim.jobs"},
		// The trace file is written at stop, which reports its failure.
		{[]string{"-trace", missing}, 0, "cmd: open " + missing},
		{[]string{"-debug-addr", "127.0.0.1:0"}, 0, "debug endpoint on http://127.0.0.1:"},
		{[]string{"-debug-addr", "256.0.0.1:bogus"}, 1, "cmd: obs: debug server"},
	})
}

func TestFarm(t *testing.T) {
	checkDefaults(t, &Farm{}, map[string]string{"farm": "", "audit-fraction": "0"})
	checkStep(t, func(f *Farm) int {
		d, code := f.Dial(nil, nil)
		if d != nil {
			t.Errorf("a dispatcher from %+v", f)
			d.Close()
		}
		return code
	}, []stepCase{
		{nil, 0, ""},
		// An empty entry would be a worker address dialed forever.
		{[]string{"-farm", "127.0.0.1:1,"}, 2, `cmd: -farm "127.0.0.1:1,": empty worker address`},
		{[]string{"-farm", "a,,b"}, 2, `cmd: -farm "a,,b": empty worker address`},
		{[]string{"-farm", "127.0.0.1:1", "-audit-fraction", "NaN"}, 2, "cmd: farm: audit fraction NaN"},
		{[]string{"-farm", "127.0.0.1:1", "-audit-fraction", "2"}, 2, "cmd: farm: audit fraction 2"},
		{[]string{"-farm", "127.0.0.1:1", "-audit-fraction", "-0.5"}, 2, "cmd: farm: audit fraction -0.5"},
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

// TestJournalRule: ascdg (Journal.Prepare) and tacquery
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
	}{{"ascdg", prepare}, {"tacquery", build}} {
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

func TestEngine(t *testing.T) {
	checkDefaults(t, &Engine{}, map[string]string{"engine": ""})
	checkStep(t, (*Engine).Check, []stepCase{
		{nil, 0, ""},
		{[]string{"-engine", "bayes"}, 0, ""},
		{[]string{"-engine", "annealing"}, 2, `cmd: unknown engine "annealing" (registered: `},
	})
	var e Engine
	register(t, &e, []string{"-engine", "ranker"})
	if e.Name != "ranker" {
		t.Errorf("Name = %q, want ranker", e.Name)
	}
}

func TestCorpus(t *testing.T) {
	checkDefaults(t, &Corpus{}, map[string]string{
		"unit": "", "sims": "1000", "seed": "1", "load": "", "workers": "0", "journal": "", "resume": "false",
	})
	checkStep(t, (*Corpus).Check, []stepCase{
		{nil, 2, "cmd: -unit is required"},
		{[]string{"-unit", "iounit", "-resume"}, 2, "cmd: -resume requires -journal"},
		{[]string{"-unit", "iounit", "-sims", "0"}, 2, "cmd: -sims 0: want at least 1"},
		{[]string{"-unit", "iounit", "-sims", "-3"}, 2, "cmd: -sims -3: want at least 1"},
		{[]string{"-unit", "iounit", "-sims", "1"}, 0, ""},
		{[]string{"-unit", "iounit", "-workers", "1099511627776"}, 2, "cmd: -workers 1099511627776: want at most 1024 (<= 0: GOMAXPROCS)"},
		{[]string{"-unit", "iounit", "-workers", "1024"}, 0, ""},
		{[]string{"-unit", "iounit", "-workers", "-1"}, 0, ""},
		{[]string{"-unit", "iounit"}, 0, ""},
		{[]string{"-unit", "iounit", "-load", "r.json"}, 0, ""},
		{[]string{"-unit", "iounit", "-load", "r.json", "-seed", "9"}, 2, "cmd: -seed changes nothing beside -load"},
		{[]string{"-unit", "iounit", "-load", "r.json", "-journal", "j", "-resume"}, 2, "cmd: -journal changes nothing beside -load"},
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

// TestREADMEHasEveryFlag keeps README's flag tables a census both ways:
// every flag this package registers has a row whose first cell names
// it, and every flag a row's first cell names is declared by this
// package or a command's main.go.
func TestREADMEHasEveryFlag(t *testing.T) {
	root := filepath.Join("..", "..")
	readme, err := os.ReadFile(filepath.Join(root, "README.md"))
	if err != nil {
		t.Fatal(err)
	}
	fs := flag.NewFlagSet("cmd", flag.ContinueOnError)
	Parse(fs, nil, io.Discard, &Obs{}, &Farm{}, &Log{}, &Profile{}, &Corpus{}, &Engine{})
	fs.VisitAll(func(f *flag.Flag) {
		row := regexp.MustCompile("(?m)^\\| [^|]*`-" + regexp.QuoteMeta(f.Name) + "[` ]")
		if !row.Match(readme) {
			t.Errorf("README.md has no flag-table row for -%s", f.Name)
		}
	})

	declared := declaredFlags(t, root)
	if len(declared) == 0 {
		t.Fatal("the scan found no declared flags")
	}
	name := regexp.MustCompile("`-([a-z][a-z0-9-]*)")
	for _, line := range strings.Split(string(readme), "\n") {
		cells := strings.Split(line, "|")
		if !strings.HasPrefix(line, "| ") || len(cells) < 3 {
			continue
		}
		for _, m := range name.FindAllStringSubmatch(cells[1], -1) {
			if !declared[m[1]] {
				t.Errorf("README.md's flag table documents -%s, which neither internal/cli nor a cmd/*/main.go declares", m[1])
			}
		}
	}
}

// declaredFlags scans this package's and every command's main.go source
// for flag-set calls whose name argument is a string literal.
func declaredFlags(t *testing.T, root string) map[string]bool {
	t.Helper()
	nameArg := map[string]int{
		"Bool": 0, "Duration": 0, "Float64": 0, "Int": 0, "Int64": 0, "String": 0, "Uint": 0, "Uint64": 0,
		"Func": 0, "BoolFunc": 0,
		"BoolVar": 1, "DurationVar": 1, "Float64Var": 1, "IntVar": 1, "Int64Var": 1, "StringVar": 1,
		"UintVar": 1, "Uint64Var": 1, "Var": 1, "TextVar": 1,
	}
	mains, err := filepath.Glob(filepath.Join(root, "cmd", "*", "main.go"))
	if err != nil {
		t.Fatal(err)
	}
	own, err := filepath.Glob("*.go")
	if err != nil {
		t.Fatal(err)
	}
	declared := map[string]bool{}
	for _, path := range append(mains, own...) {
		if strings.HasSuffix(path, "_test.go") {
			continue
		}
		file, err := parser.ParseFile(token.NewFileSet(), path, nil, 0)
		if err != nil {
			t.Fatal(err)
		}
		ast.Inspect(file, func(n ast.Node) bool {
			call, ok := n.(*ast.CallExpr)
			if !ok {
				return true
			}
			sel, ok := call.Fun.(*ast.SelectorExpr)
			if !ok {
				return true
			}
			i, ok := nameArg[sel.Sel.Name]
			if !ok || len(call.Args) <= i {
				return true
			}
			if lit, ok := call.Args[i].(*ast.BasicLit); ok && lit.Kind == token.STRING {
				name, _ := strconv.Unquote(lit.Value) // the parser accepted the literal
				declared[name] = true
			}
			return true
		})
	}
	return declared
}
