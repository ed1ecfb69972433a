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
	"log/slog"
	"os"
	"runtime"
	"runtime/pprof"
	"strings"
	"time"

	"repro/internal/buildinfo"
	"repro/internal/coverage"
	"repro/internal/duv"
	"repro/internal/failpoint"
	"repro/internal/farm"
	"repro/internal/journal"
	"repro/internal/obs"
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
	fs.StringVar(&o.debugAddr, "debug-addr", "", "serve /debug/vars, /debug/metrics, /debug/pprof and the ops endpoints (/metrics, /healthz, /readyz) on this address while running")
}

// Start starts the observability session, with health (may be nil)
// answering /readyz. rec is nil when every sink is off. stop writes the
// trace and the metrics dump and stops the debug server; the command
// defers it.
func (o *Obs) Start(health *obs.Health) (rec *obs.Recorder, stop func(), code int) {
	w := o.fs.Output()
	var progressW io.Writer
	if o.progress {
		progressW = w
	}
	sess, err := obs.StartSession(obs.Config{
		TracePath:   o.trace,
		ProgressW:   progressW,
		MetricsDump: o.metrics,
		DebugAddr:   o.debugAddr,
		Health:      health,
	}, w)
	if err != nil {
		return nil, nil, Fail(o.fs, 1, err)
	}
	return sess.Recorder(), func() {
		if err := sess.Close(); err != nil {
			printf(o.fs, "%v", err)
		}
	}, 0
}

// Farm is -farm, -farm-retry, -hedge and -audit-fraction.
type Farm struct {
	fs                   *flag.FlagSet
	addrs, retry         string
	hedge, auditFraction float64
}

func (f *Farm) Register(fs *flag.FlagSet) {
	f.fs = fs
	fs.StringVar(&f.addrs, "farm", "", "comma-separated farmd worker addresses (host:port,host:port); chunks are dispatched remotely with local fallback")
	fs.StringVar(&f.retry, "farm-retry", "", "farm retry/backoff tuning: base=50ms,cap=2s,attempts=3,jitter=0.25 (keys optional)")
	fs.Float64Var(&f.hedge, "hedge", 0, "hedge straggling farm chunks after this multiple of the fleet p95 latency (0 disables)")
	fs.Float64Var(&f.auditFraction, "audit-fraction", 0, "re-execute this fraction of remote chunk results locally and cross-check them (0 disables, 1 audits everything)")
}

// Dial builds the dispatcher over the -farm workers, or returns nil when
// -farm is empty. It waits up to five seconds for a first worker and
// warns if none answered: chunks fall back to local execution until one
// does. retry is the effective -farm-retry configuration, for banners.
// A -hedge, -audit-fraction or -farm-retry the dispatcher cannot honour
// (farm.Options.Validate, ApplyRetrySpec) is a usage error.
// The command closes d.
func (f *Farm) Dial(rec *obs.Recorder, log *slog.Logger) (d *farm.Dispatcher, retry string, code int) {
	if f.addrs == "" {
		return nil, "", 0
	}
	opts := farm.Options{Rec: rec, Log: log, Hedge: f.hedge, AuditFraction: f.auditFraction}
	if err := opts.Validate(); err != nil {
		return nil, "", Fail(f.fs, 2, err)
	}
	if err := opts.ApplyRetrySpec(f.retry); err != nil {
		return nil, "", Fail(f.fs, 2, err)
	}
	d = farm.New(strings.Split(f.addrs, ","), opts)
	if err := d.WaitReady(5 * time.Second); err != nil {
		printf(f.fs, "farm: no worker reachable yet (%v); continuing, chunks fall back to local execution", err)
	}
	return d, opts.RetryString(), 0
}

// Faults is -failpoints, which defaults to $ASCDG_FAILPOINTS.
type Faults struct {
	fs   *flag.FlagSet
	spec string
}

func (f *Faults) Register(fs *flag.FlagSet) {
	f.fs = fs
	fs.StringVar(&f.spec, "failpoints", os.Getenv("ASCDG_FAILPOINTS"), "arm fault-injection points: name=policy[:rate[:times]],... (policies: error, delay(d), corrupt, drop, panic; seed=N reseeds; default $ASCDG_FAILPOINTS)")
}

// Arm arms the -failpoints spec in failpoint.Default.
func (f *Faults) Arm() int {
	if err := failpoint.Configure(f.spec); err != nil {
		return Fail(f.fs, 2, err)
	}
	return 0
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

// Check requires -unit and rejects -resume without -journal.
func (c *Corpus) Check() int {
	if c.Unit == "" {
		return Fail(c.fs, 2, errors.New("-unit is required"))
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
