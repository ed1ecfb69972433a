// Package cli owns every flag more than one command declares. Each group
// is a type whose Register binds its flags on a command's flag set and
// whose one step acts on them once the flags are parsed. A step that
// fails prints "command: error" on the flag set's output and returns the
// exit code the command ends with: 2 for a malformed value, 1 for a
// runtime failure; 0 means go on.
package cli

import (
	"context"
	"errors"
	"flag"
	"fmt"
	"io"
	iofs "io/fs"
	"log/slog"
	"os"
	"path/filepath"
	"runtime"
	"runtime/pprof"
	"strings"
	"time"

	"repro/internal/buildinfo"
	"repro/internal/coverage"
	"repro/internal/duv"
	"repro/internal/farm"
	"repro/internal/journal"
	"repro/internal/obs"
	"repro/internal/opt"
	"repro/internal/sim"
)

// Group is a set of flags a command takes from this package.
type Group interface {
	Register(fs *flag.FlagSet)
}

// Parse registers the groups and -version on fs and parses args into it.
// done reports whether the command ends here, with code: 2 after a parse
// error (fs has printed it), 0 after printing the version line to stdout.
func Parse(fs *flag.FlagSet, args []string, stdout io.Writer, groups ...Group) (code int, done bool) {
	for _, g := range groups {
		g.Register(fs)
	}
	version := fs.Bool("version", false, "print version information and exit")
	if err := fs.Parse(args); err != nil {
		return 2, true
	}
	if *version {
		fmt.Fprintln(stdout, buildinfo.String(fs.Name()))
		return 0, true
	}
	return 0, false
}

// printf prints one line on fs's output, prefixed with the command's
// name, the way every command reports an error or a warning.
func printf(fs *flag.FlagSet, format string, args ...any) {
	fmt.Fprintf(fs.Output(), "%s: "+format+"\n", append([]any{fs.Name()}, args...)...)
}

// Fail reports err the way every step does, as "command: err" on fs's
// output, and returns code for the command to exit with.
func Fail(fs *flag.FlagSet, code int, err error) int {
	printf(fs, "%v", err)
	return code
}

// CheckOutput refuses, with code 1, an output flag whose path cannot be
// written, so a command fails before it simulates rather than after:
// it creates and removes a temp file in the path's directory, the probe
// a service makes of its data root. An empty path passes.
func CheckOutput(fs *flag.FlagSet, name, path string) int {
	if path == "" {
		return 0
	}
	if fi, err := os.Stat(path); err == nil && fi.IsDir() {
		return Fail(fs, 1, fmt.Errorf("-%s %s: is a directory", name, path))
	}
	probe, err := os.CreateTemp(filepath.Dir(path), ".probe-*")
	if err != nil {
		var pe *iofs.PathError
		if errors.As(err, &pe) {
			err = pe.Err
		}
		return Fail(fs, 1, fmt.Errorf("-%s %s: cannot create a file in %s: %w", name, path, filepath.Dir(path), err))
	}
	probe.Close()
	os.Remove(probe.Name())
	return 0
}

// Obs is -trace, -progress, -metrics and -debug-addr.
type Obs struct {
	fs                *flag.FlagSet
	trace, debugAddr  string
	progress, metrics bool
}

func (o *Obs) Register(fs *flag.FlagSet) {
	o.fs = fs
	fs.StringVar(&o.trace, "trace", "", "write a Chrome trace-event JSON of the run to this file (view in Perfetto)")
	fs.BoolVar(&o.progress, "progress", false, "stream JSONL progress events to stderr")
	fs.BoolVar(&o.metrics, "metrics", false, "print a final metrics summary to stderr")
	fs.StringVar(&o.debugAddr, "debug-addr", "", "serve /debug/pprof and the ops endpoints (/metrics, /healthz, /readyz) on this address while running")
}

// Start starts the run's observability, with health (may be nil)
// answering /readyz. rec is nil when every sink is off, so an
// uninstrumented run stays zero-cost. stop stops the debug server,
// writes the trace file and prints the metrics dump; the command defers
// it. A failure at stop is reported and leaves the run's results as
// they are.
func (o *Obs) Start(health *obs.Health) (rec *obs.Recorder, stop func(), code int) {
	if o.trace == "" && !o.progress && !o.metrics && o.debugAddr == "" {
		return nil, func() {}, 0
	}
	w := o.fs.Output()
	rec = &obs.Recorder{Metrics: obs.NewRegistry()}
	if o.trace != "" {
		rec.Trace = obs.NewTracer()
	}
	if o.progress {
		rec.Progress = obs.NewProgress(w)
	}
	var srv *obs.DebugServer
	if o.debugAddr != "" {
		var err error
		if srv, err = obs.ServeDebug(o.debugAddr, rec.Metrics, health); err != nil {
			return nil, nil, Fail(o.fs, 1, fmt.Errorf("obs: debug server: %w", err))
		}
		fmt.Fprintf(w, "debug endpoint on http://%s/debug/pprof/\n", srv.Addr())
	}
	return rec, func() {
		if srv != nil {
			if err := srv.Close(); err != nil {
				printf(o.fs, "%v", err)
			}
		}
		if rec.Trace != nil {
			if err := writeTrace(o.trace, rec.Trace); err != nil {
				printf(o.fs, "%v", err)
			}
		}
		if o.metrics {
			fmt.Fprint(w, rec.Metrics.Format())
		}
	}, 0
}

// writeTrace writes t's spans to path as Chrome trace-event JSON.
func writeTrace(path string, t *obs.Tracer) error {
	f, err := os.Create(path)
	if err != nil {
		return err
	}
	if err := t.Export(f); err != nil {
		f.Close()
		return err
	}
	return f.Close()
}

// Farm is -farm and -audit-fraction. The dispatcher's timeouts, retry
// budget and backoff are constants of internal/farm.
type Farm struct {
	fs            *flag.FlagSet
	addrs         string
	auditFraction float64
}

func (f *Farm) Register(fs *flag.FlagSet) {
	f.fs = fs
	fs.StringVar(&f.addrs, "farm", "", "comma-separated farmd worker addresses (host:port,host:port); chunks are dispatched remotely with local fallback")
	fs.Float64Var(&f.auditFraction, "audit-fraction", 0, "re-execute this fraction of remote chunk results locally and cross-check them (0 disables, 1 audits everything)")
}

// Dial builds the dispatcher over the -farm workers, or returns nil when
// -farm is empty. It waits up to five seconds for a first worker and
// warns if none answered: chunks fall back to local execution until one
// does. An empty address in the list, or an -audit-fraction the
// dispatcher cannot honour (farm.Options.Validate), is a usage error.
// The command closes d.
func (f *Farm) Dial(rec *obs.Recorder, log *slog.Logger) (d *farm.Dispatcher, code int) {
	if f.addrs == "" {
		return nil, 0
	}
	addrs := strings.Split(f.addrs, ",")
	for i, a := range addrs {
		if addrs[i] = strings.TrimSpace(a); addrs[i] == "" {
			return nil, Fail(f.fs, 2, fmt.Errorf("-farm %q: empty worker address", f.addrs))
		}
	}
	opts := farm.Options{Rec: rec, Log: log, AuditFraction: f.auditFraction}
	if err := opts.Validate(); err != nil {
		return nil, Fail(f.fs, 2, err)
	}
	d = farm.New(addrs, opts)
	if err := d.WaitReady(5 * time.Second); err != nil {
		printf(f.fs, "farm: no worker reachable yet (%v); continuing, chunks fall back to local execution", err)
	}
	return d, 0
}

// Log is -log-level and -log-format.
type Log struct {
	fs            *flag.FlagSet
	level, format string
}

func (l *Log) Register(fs *flag.FlagSet) {
	l.fs = fs
	fs.StringVar(&l.level, "log-level", "info", "structured log level: debug, info, warn or error")
	fs.StringVar(&l.format, "log-format", "text", "structured log encoding: text or json")
}

// New builds the structured logger, writing to the flag set's output.
func (l *Log) New() (*slog.Logger, int) {
	logger, err := obs.NewLogger(l.fs.Output(), l.level, l.format)
	if err != nil {
		return nil, Fail(l.fs, 2, err)
	}
	return logger, 0
}

// Profile is -cpuprofile and -memprofile.
type Profile struct {
	fs       *flag.FlagSet
	cpu, mem string
}

func (p *Profile) Register(fs *flag.FlagSet) {
	p.fs = fs
	fs.StringVar(&p.cpu, "cpuprofile", "", "write a CPU profile of the run to this file")
	fs.StringVar(&p.mem, "memprofile", "", "write a heap profile at exit to this file")
}

// Start begins the CPU profile. stop ends it and writes the heap
// profile; the command defers it.
func (p *Profile) Start() (stop func(), code int) {
	stopProfiles, err := startProfiles(p.cpu, p.mem)
	if err != nil {
		return nil, Fail(p.fs, 1, err)
	}
	return func() {
		if err := stopProfiles(); err != nil {
			printf(p.fs, "%v", err)
		}
	}, 0
}

// startProfiles begins CPU profiling to cpuPath (if non-empty) and
// returns a stop function that ends the CPU profile and writes a heap
// profile to memPath (if non-empty). It returns the first error hit
// while finishing the profiles, and a second call does not close the CPU
// profile twice.
func startProfiles(cpuPath, memPath string) (stop func() error, err error) {
	var cpuFile *os.File
	if cpuPath != "" {
		cpuFile, err = os.Create(cpuPath)
		if err != nil {
			return nil, fmt.Errorf("profiling: create cpu profile: %w", err)
		}
		if err := pprof.StartCPUProfile(cpuFile); err != nil {
			cpuFile.Close()
			return nil, fmt.Errorf("profiling: start cpu profile: %w", err)
		}
	}
	return func() error {
		if cpuFile != nil {
			pprof.StopCPUProfile()
			if err := cpuFile.Close(); err != nil {
				return fmt.Errorf("profiling: close cpu profile: %w", err)
			}
			cpuFile = nil
		}
		if memPath != "" {
			f, err := os.Create(memPath)
			if err != nil {
				return fmt.Errorf("profiling: create mem profile: %w", err)
			}
			defer f.Close()
			runtime.GC() // flush unreachable objects so the heap profile reflects live memory
			if err := pprof.WriteHeapProfile(f); err != nil {
				return fmt.Errorf("profiling: write mem profile: %w", err)
			}
		}
		return nil
	}, nil
}

// Journal is -journal and -resume.
type Journal struct {
	fs     *flag.FlagSet
	Path   string
	Resume bool
}

func (j *Journal) Register(fs *flag.FlagSet) {
	j.fs = fs
	fs.StringVar(&j.Path, "journal", "", "checkpoint the run into this crash-safe journal file (on repro: a directory, one journal per figure)")
	fs.BoolVar(&j.Resume, "resume", false, "recover the -journal and re-enter the interrupted run (use the same flags)")
}

// Check rejects -resume without -journal.
func (j *Journal) Check() int {
	if j.Resume && j.Path == "" {
		return Fail(j.fs, 2, errors.New("-resume requires -journal"))
	}
	return 0
}

// Prepare applies the one journal rule of every command that journals a
// run into a file: -resume needs an existing journal, and -journal
// without -resume starts over, removing a stale file. The command then
// opens -journal with journal.Open, which resumes whatever file is there.
func (j *Journal) Prepare() int {
	if j.Path == "" {
		return 0
	}
	_, err := os.Stat(j.Path)
	if j.Resume && err != nil {
		return Fail(j.fs, 1, fmt.Errorf("-resume: no journal at %s", j.Path))
	}
	if !j.Resume && err == nil {
		if err := os.Remove(j.Path); err != nil {
			return Fail(j.fs, 1, err)
		}
	}
	return 0
}

// Interrupted reports that an interrupt stopped the command's run (or
// build), and how to continue it when it was journaled.
func (j *Journal) Interrupted(what string) {
	printf(j.fs, "interrupted")
	if j.Path != "" {
		printf(j.fs, "%s checkpointed; continue with: %s -resume -journal %s (plus the same flags)", what, j.fs.Name(), j.Path)
	}
}

// Workers is -workers, the simulation worker-pool size.
type Workers int

func (w *Workers) Register(fs *flag.FlagSet) {
	fs.IntVar((*int)(w), "workers", 0, "simulation worker goroutines (<= 0: GOMAXPROCS)")
}

// Check refuses a pool above sim.MaxWorkers with exit code 2.
func (w Workers) Check(fs *flag.FlagSet) int {
	if int(w) > sim.MaxWorkers {
		return Fail(fs, 2, fmt.Errorf("-workers %d: want at most %d (<= 0: GOMAXPROCS)", int(w), sim.MaxWorkers))
	}
	return 0
}

// Engine is -engine, the fine-grained optimizer by name. The
// engine runs with its default knobs over the flow's budget flags.
type Engine struct {
	fs   *flag.FlagSet
	Name string
}

func (e *Engine) Register(fs *flag.FlagSet) {
	e.fs = fs
	fs.StringVar(&e.Name, "engine", "", "optimization engine: "+strings.Join(opt.EngineNames(), ", ")+" (default "+opt.DefaultEngine+")")
}

// Check refuses an engine name opt does not know.
func (e *Engine) Check() int {
	if err := opt.Validate(e.Name, nil); err != nil {
		return Fail(e.fs, 2, err)
	}
	return 0
}

// Corpus is the coverage repository of a unit's base suite: -unit,
// -sims, -seed, -load, -workers, -journal and -resume.
type Corpus struct {
	fs      *flag.FlagSet
	Unit    string
	sims    int
	seed    uint64
	load    string
	workers Workers
	journal Journal
}

func (c *Corpus) Register(fs *flag.FlagSet) {
	c.fs = fs
	fs.StringVar(&c.Unit, "unit", "", "built-in unit: "+strings.Join(duv.Names(), ", "))
	fs.IntVar(&c.sims, "sims", 1000, "simulations per base template when building the repository")
	fs.Uint64Var(&c.seed, "seed", 1, "simulation seed")
	fs.StringVar(&c.load, "load", "", "load the repository from this JSON file instead of simulating")
	c.workers.Register(fs)
	c.journal.Register(fs)
}

// Check requires -unit and at least one simulation per template,
// refuses -workers above sim.MaxWorkers, rejects -resume without
// -journal, and refuses beside -load each flag that shapes a build,
// which -load would ignore.
func (c *Corpus) Check() int {
	if c.Unit == "" {
		return Fail(c.fs, 2, errors.New("-unit is required"))
	}
	if c.load != "" {
		ignored := ""
		c.fs.Visit(func(f *flag.Flag) {
			switch f.Name {
			case "sims", "seed", "workers", "journal", "resume":
				if ignored == "" {
					ignored = f.Name
				}
			}
		})
		if ignored != "" {
			return Fail(c.fs, 2, fmt.Errorf("-%s changes nothing beside -load: the repository is loaded, not simulated", ignored))
		}
	}
	if c.sims < 1 {
		return Fail(c.fs, 2, fmt.Errorf("-sims %d: want at least 1", c.sims))
	}
	if code := c.workers.Check(c.fs); code != 0 {
		return code
	}
	return c.journal.Check()
}

// Build returns the repository: loaded from -load, or simulated under
// -sims, -seed and -workers and checkpointed per -journal/-resume
// (Journal.Prepare). A nil repository ends the command with code: 1
// after an error, 0 once an interrupted build is checkpointed.
func (c *Corpus) Build(ctx context.Context, unit duv.DUV, rec *obs.Recorder) (repo *coverage.Repository, code int) {
	if c.load != "" {
		repo, err := coverage.LoadFile(c.load, unit.Model())
		if err != nil {
			return nil, Fail(c.fs, 1, err)
		}
		return repo, 0
	}
	env := sim.NewEnv(unit, c.seed, int(c.workers))
	defer env.Close()
	env.SetRecorder(rec)
	env.SetContext(ctx)
	var cur *journal.Cursor
	if c.journal.Path != "" {
		if code := c.journal.Prepare(); code != 0 {
			return nil, code
		}
		var err error
		cur, err = env.OpenCorpusJournal(c.journal.Path, c.sims, rec)
		if err != nil {
			return nil, Fail(c.fs, 1, err)
		}
		defer cur.Close()
	}
	repo, err := env.BuildCorpusJournaled(c.sims, cur)
	if errors.Is(err, context.Canceled) {
		c.journal.Interrupted("build")
		return nil, 0
	}
	if err != nil {
		return nil, Fail(c.fs, 1, err)
	}
	return repo, 0
}
