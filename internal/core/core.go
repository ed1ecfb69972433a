// Package core implements the AS-CDG flow (paper Section IV, Fig. 2):
// the CDG-Runner orchestration that ties the substrates together.
//
// On top of the "Before CDG" corpus — the unit's base regression suite
// simulated into a coverage repository, built once or reused — the flow
// is six steps, one function each (steps.go):
//
//  1. approximated target: the real target events plus weighted
//     neighbor events (familyTarget, crossTarget, eventsTarget);
//  2. coarse-grained search: TAC finds the best existing test-templates
//     for the approximated target, and the parameters of the top-n are
//     merged into one candidate template (coarseSearch);
//  3. skeletonize the candidate, defining the fine-grained search box
//     (skeletonize);
//  4. random-sample the box, n templates x N sims each (sampleBox);
//  5. optimize from the best sampled point with the configured engine —
//     implicit filtering by default, n+1 templates per iteration, N sims
//     per template (optimize);
//  6. harvest the best template and measure it standalone (harvest).
//
// The campaign's target is data (Target: a family, a cross product or
// an event list), and Run is the one entry point that takes it: one
// loop runs step 1 for the target's mode, then the one composition,
// pipeline — steps 2-6 — once per round. A round hands the next only
// values: the repository's recorded harvests and the earlier rounds'
// reports, whose harvested bodies join the coarse-grained search. A
// flow runs one campaign.
//
// Every phase's aggregate coverage is retained so the paper's result
// tables (Figs. 3-5) and the optimization progress curve (Fig. 6) can be
// reproduced directly from one Report.
package core

import (
	"context"
	"encoding/json"
	"errors"
	"fmt"
	"log/slog"
	"slices"

	"repro/internal/coverage"
	"repro/internal/duv"
	"repro/internal/journal"
	"repro/internal/neighbors"
	"repro/internal/obs"
	"repro/internal/opt"
	"repro/internal/rng"
	"repro/internal/sim"
	"repro/internal/skeleton"
	"repro/internal/tac"
	"repro/internal/template"
)

// Config holds every knob of the flow. The zero value selects the
// defaults documented per field, and a negative budget or an oversized
// pool is an error (Validate); the paper's per-unit settings live in
// the repro harness (cmd/repro).
type Config struct {
	// Seed makes the entire flow reproducible.
	Seed uint64
	// Workers sizes the batch environment's pool (<= 0: GOMAXPROCS).
	Workers int
	// Runner, when non-nil, adds remote chunk-execution lanes to the
	// environment (see sim.ChunkRunner; internal/farm provides the
	// distributed implementation). RunnerLanes sizes them (default 1).
	// Purely a throughput knob: results are bit-identical with or
	// without a runner, at any lane count, under any runner failures.
	Runner      sim.ChunkRunner
	RunnerLanes int

	// CorpusCache, when non-nil, shares finished "Before CDG" corpus
	// builds between flows (see sim.CorpusCache): a flow whose corpus
	// another flow already built replays it instead of simulating it,
	// through the journal-resume path. Like Runner it is purely a
	// throughput knob — reports and journals are byte-identical with or
	// without it.
	CorpusCache *sim.CorpusCache

	// CorpusSimsPerTemplate is the number of simulations of each base
	// template when building the "Before CDG" corpus (default 1000).
	CorpusSimsPerTemplate int

	// TopTemplates is how many best TAC templates contribute parameters
	// to the fine-grained search (default 2).
	TopTemplates int

	// Subranges is the Skeletonizer's subrange count per range parameter
	// (default 4; linear subranges, zero weights left unmarked).
	Subranges int

	// SampleTemplates (n) and SampleSims (N) configure the random
	// sample phase (defaults 50 and 100).
	SampleTemplates int
	SampleSims      int

	// OptIterations, OptDirections and OptSims configure implicit
	// filtering (defaults 10, 10, 100). The engine's other tuning (its
	// first and smallest stencil steps) is constants in internal/opt.
	OptIterations int
	OptDirections int
	OptSims       int

	// BestSims is the standalone evaluation budget for the harvested
	// template (default 2000).
	BestSims int

	// Engine selects the fine-grained optimizer by name
	// ("" = implicit_filtering, the paper's Algorithm 1; see
	// opt.EngineNames). Result-relevant and journal-hashed.
	Engine string

	// Prior offers past observations from the cross-campaign knowledge
	// base to engines that learn from history (ranker, bayes): each
	// point is a previously harvested weight vector and its measured
	// coverage score. Stencil engines ignore it. Result-relevant when
	// the selected engine uses it, so its content digest is part of the
	// journal's config hash.
	Prior []opt.PriorPoint

	// TACPrior is hashed into the journal's config hash and read by
	// nothing else: the coarse-grained search ranks templates by the
	// corpus alone. Older service versions froze per-template TAC score
	// boosts into a campaign's knowledge.json and hashed their names and
	// values here, so a campaign they left running resumes only if the
	// frozen map is hashed again. The service refuses to resume one
	// whose map holds a non-zero boost, which this flow would no longer
	// apply.
	TACPrior map[string]float64

	// Obs, when non-nil, instruments the run: phase spans and progress
	// events from the flow, scheduler metrics from the environment, and
	// per-iteration records from the optimizer. Purely observational —
	// reports are bit-identical with it set or nil (default nil).
	Obs *obs.Recorder

	// Journal, when non-empty, is the path of the flow's crash-safe
	// journal file. New arms it at construction: a missing (or empty)
	// file starts a fresh journal; an existing one is recovered and
	// replayed, re-entering the interrupted run mid-phase (its header
	// must match this flow's unit, seed, coverage model, and
	// result-relevant config). The flow owns the journal and closes it
	// with Close.
	Journal string

	// Log, when non-nil, receives structured journal lifecycle events
	// (resume, torn-tail truncation). Like Obs, it is throughput-only:
	// excluded from the journal's config hash, never result-relevant.
	Log *slog.Logger
}

// Validate is the one check of a config's budgets, shared by New and a
// service's admission as Target.Validate is: zero selects a budget's
// default, and a negative budget is an error rather than a silent
// default. Workers and RunnerLanes size pools, not budgets: they keep
// their documented <= 0 meaning, and a pool above sim.MaxWorkers is an
// error. Its errors carry no package prefix.
func (c Config) Validate() error {
	for _, p := range []struct {
		name string
		v    int
	}{{"Workers", c.Workers}, {"RunnerLanes", c.RunnerLanes}} {
		if p.v > sim.MaxWorkers {
			return fmt.Errorf("pool %s %d exceeds %d (<= 0 selects the default)", p.name, p.v, sim.MaxWorkers)
		}
	}
	for _, b := range []struct {
		name string
		v    int
	}{
		{"CorpusSimsPerTemplate", c.CorpusSimsPerTemplate},
		{"TopTemplates", c.TopTemplates},
		{"Subranges", c.Subranges},
		{"SampleTemplates", c.SampleTemplates},
		{"SampleSims", c.SampleSims},
		{"OptIterations", c.OptIterations},
		{"OptDirections", c.OptDirections},
		{"OptSims", c.OptSims},
		{"BestSims", c.BestSims},
	} {
		if b.v < 0 {
			return fmt.Errorf("budget %s %d is negative (0 selects the default)", b.name, b.v)
		}
	}
	return nil
}

func (c Config) withDefaults() Config {
	if c.CorpusSimsPerTemplate <= 0 {
		c.CorpusSimsPerTemplate = 1000
	}
	if c.TopTemplates <= 0 {
		c.TopTemplates = 2
	}
	if c.Subranges <= 0 {
		c.Subranges = 4
	}
	if c.SampleTemplates <= 0 {
		c.SampleTemplates = 50
	}
	if c.SampleSims <= 0 {
		c.SampleSims = 100
	}
	if c.OptIterations <= 0 {
		c.OptIterations = 10
	}
	if c.OptDirections <= 0 {
		c.OptDirections = 10
	}
	if c.OptSims <= 0 {
		c.OptSims = 100
	}
	if c.BestSims <= 0 {
		c.BestSims = 2000
	}
	return c
}

// engineName resolves the configured optimization engine ("" means the
// paper's default, implicit filtering).
func (c Config) engineName() string {
	if c.Engine == "" {
		return opt.DefaultEngine
	}
	return c.Engine
}

// engineParams builds the engine's parameter blob from the flow's
// generic optimizer knobs; every other knob keeps the engine's default.
// Engines decode leniently, so stencil-specific knobs (directions) are
// simply ignored by engines without them.
func (c Config) engineParams() (json.RawMessage, error) {
	return opt.MergeParams(map[string]any{
		"iterations": c.OptIterations,
		"directions": c.OptDirections,
	}, nil)
}

// PhaseStats is one phase's aggregate coverage — one column group of the
// paper's Figs. 3 and 4.
type PhaseStats struct {
	// Name is "before", "sampling", "optimization" or "best".
	Name string
	// Description summarizes the phase's budget, e.g. "200 tests x 100
	// sims each".
	Description string
	// Counts aggregates every simulation of the phase.
	Counts *coverage.Counts
}

// Report is the full outcome of one AS-CDG run.
type Report struct {
	Unit         string
	Target       *neighbors.Target
	TargetEvents []int // the real (uncovered) target events

	// ChosenTemplates are the coarse-grained search winners.
	ChosenTemplates []tac.TemplateScore
	// Candidate is the merged template handed to the Skeletonizer.
	Candidate *template.Template
	// Skeleton is the fine-grained search space.
	Skeleton *skeleton.Skeleton

	Phases []PhaseStats

	// BestWeights/BestTemplate are the harvested optimum.
	BestWeights  []float64
	BestTemplate *template.Template

	// Progress is the optimizer's per-iteration best target value — the
	// paper's Fig. 6 series.
	Progress []opt.IterRecord

	// TotalSims is the number of simulations consumed by the whole run
	// (excluding a pre-built corpus).
	TotalSims uint64
}

// Phase returns the named phase's stats, or nil.
func (r *Report) Phase(name string) *PhaseStats {
	for i := range r.Phases {
		if r.Phases[i].Name == name {
			return &r.Phases[i]
		}
	}
	return nil
}

// Flow runs one AS-CDG campaign against one unit.
type Flow struct {
	env  *sim.Env
	cfg  Config
	rec  *obs.Recorder // nil when observability is off
	repo *coverage.Repository
	ctx  context.Context // the campaign's; nil until one begins
	cur  *journal.Cursor // nil = journaling off
}

// ErrInterrupted reports a run stopped by context cancellation rather
// than a real failure: the flow checkpointed its state (when journaled),
// and a new flow armed with the same journal resumes the campaign. All
// run entry points return an error satisfying
// errors.Is(err, ErrInterrupted) on cancellation, so callers decide
// exit codes without string matching. The underlying ctx.Err() stays in
// the chain, so errors.Is(err, context.Canceled) keeps working too.
var ErrInterrupted = errors.New("core: run interrupted")

// New creates a fully configured flow for the unit: cfg.Journal arms
// the crash-safe journal (fresh when the file is missing, resumed when
// it exists).
// This is the declarative construction path — nothing needs to be
// mutated on the flow before running it.
func New(unit duv.DUV, cfg Config) (*Flow, error) {
	if err := cfg.Validate(); err != nil {
		return nil, fmt.Errorf("core: %w", err)
	}
	cfg = cfg.withDefaults()
	env := sim.NewEnv(unit, cfg.Seed, cfg.Workers)
	env.SetRecorder(cfg.Obs)
	if cfg.Runner != nil {
		lanes := cfg.RunnerLanes
		if lanes <= 0 {
			lanes = 1
		}
		env.AttachRunner(cfg.Runner, lanes)
	}
	env.SetCorpusCache(cfg.CorpusCache)
	f := &Flow{env: env, cfg: cfg, rec: cfg.Obs}
	if cfg.Journal != "" {
		cur, resumed, err := journal.Open(cfg.Journal, "flow_header", f.header(), f.rec, cfg.Log)
		if err != nil {
			env.Close()
			return nil, err
		}
		if resumed {
			f.rec.Counter("flow.resumes").Inc()
		}
		f.cur = cur
	}
	return f, nil
}

// Env exposes the flow's batch environment (for accounting).
func (f *Flow) Env() *sim.Env { return f.env }

// Close releases the environment's worker pool and the journal, if any.
// The flow must not be run afterwards.
func (f *Flow) Close() {
	f.env.Close()
	f.cur.Close()
}

// ctxErr is the flow's nil-tolerant cancellation probe.
func (f *Flow) ctxErr() error {
	if f.ctx == nil {
		return nil
	}
	return f.ctx.Err()
}

// finish normalizes a run's error: a run that failed because
// its context was canceled is an interruption, not a failure — the
// error is wrapped so errors.Is(err, ErrInterrupted) holds (the
// original cause stays in the chain) and the cancellation metric is
// bumped. Errors from live runs pass through untouched.
func (f *Flow) finish(err error) error {
	if err == nil || f.ctxErr() == nil || errors.Is(err, ErrInterrupted) {
		return err
	}
	f.rec.Counter("flow.cancellations").Inc()
	return fmt.Errorf("%w: %w", ErrInterrupted, err)
}

// Repository returns the flow's corpus (nil until built).
func (f *Flow) Repository() *coverage.Repository { return f.repo }

// Run is the flow's one entry point: it validates target against the
// unit, claims the flow for its one campaign by installing the run's
// context (nil means never canceled) on it and its environment, builds
// the corpus, then runs step 1 for the target's mode and steps 2-6,
// returning one report per round. A failure caused by cancellation is
// an interruption, and a refused target leaves the flow unclaimed.
//
// A family target runs up to Rounds, the paper's closing observation in
// Section IV-E: "Once there is good evidence for the target event, we
// can repeat the process." A cross or events target runs one round.
// Each round re-derives the real targets from the repository, which
// holds the earlier rounds' harvests (events they newly covered drop
// out), and the earlier rounds' harvested templates compete in the
// coarse-grained search, so the skeleton of round k+1 starts from the
// best knowledge of round k. Nothing else passes between rounds: the
// runner stream has no round in it, so every round draws the same
// sample points and optimizer stream. The loop stops early once every
// family event has evidence.
//
// A flow runs one campaign: a second call returns an error. With a
// journal armed (Config.Journal), completed phases replay from the
// record stream without simulating and the run re-enters live
// execution mid-phase; either way the reports are bit-identical to an
// uninterrupted unjournaled run. On cancellation the flow stops between
// simulations, never journals post-cancellation state, and returns an
// ErrInterrupted-wrapped error alongside the rounds it completed — a
// new flow on the same journal then resumes from the last completed
// record.
func (f *Flow) Run(ctx context.Context, target Target) ([]*Report, error) {
	if err := target.Validate(f.env.Unit()); err != nil {
		return nil, fmt.Errorf("core: %w", err)
	}
	if f.ctx != nil {
		return nil, errors.New("core: the flow already ran a campaign; resume one in a new flow from its journal")
	}
	if ctx == nil {
		ctx = context.Background()
	}
	f.ctx = ctx
	f.env.SetContext(ctx)
	if err := f.buildCorpus(); err != nil {
		return nil, f.finish(err)
	}
	var reports []*Report
	for len(reports) < target.rounds() && !(len(reports) > 0 && f.familyCovered(target.Family)) {
		approx, targetEvents, err := f.approximate(target)
		if err != nil {
			return reports, f.finish(err)
		}
		report, err := f.pipeline(approx, targetEvents, reports)
		if err != nil {
			return reports, f.finish(err)
		}
		reports = append(reports, report)
	}
	return reports, nil
}

// RunFamilyRefined is Run for a family target.
func (f *Flow) RunFamilyRefined(ctx context.Context, family string, decay float64, rounds int) ([]*Report, error) {
	return f.Run(ctx, Target{Family: family, Decay: decay, Rounds: rounds})
}

// RunCross is Run for a cross-product target, returning its one report.
func (f *Flow) RunCross(ctx context.Context, crossName string) (*Report, error) {
	reports, err := f.Run(ctx, Target{Cross: crossName})
	if err != nil {
		return nil, err
	}
	return reports[0], nil
}

// familyCovered reports whether every event of the family has evidence
// in the repository.
func (f *Flow) familyCovered(family string) bool {
	famIDs, _ := f.env.Unit().Model().Family(family)
	return len(f.uncovered(famIDs)) == 0
}

// pipeline is the flow's one composition: one approximated target
// through steps 2-6. The journal's run_start record follows the coarse
// search, which simulates nothing, so that it can name the choice; it
// and run_done bracket the steps that simulate. prior are the
// campaign's earlier rounds: their count numbers this round, and their
// harvested templates join the coarse-grained search.
func (f *Flow) pipeline(target *neighbors.Target, targetEvents []int, prior []*Report) (*Report, error) {
	if target == nil || target.Len() == 0 {
		return nil, fmt.Errorf("core: empty approximated target")
	}
	round := len(prior) + 1
	chosen, candidate, err := f.coarseSearch(target, prior)
	if err != nil {
		return nil, err
	}
	if err := f.syncRunStart(target, targetEvents, chosen); err != nil {
		return nil, err
	}
	simsAtStart := f.env.Simulations()
	before := f.beforePhase()
	skel, err := f.skeletonize(candidate)
	if err != nil {
		return nil, err
	}
	r := rng.New(f.cfg.Seed).SplitString("cdg-runner")
	samples, sampling, err := f.sampleBox(skel, r.SplitString("sample"), target)
	if err != nil {
		return nil, err
	}
	res, optimization, err := f.optimize(skel, samples, target, r.SplitString("optimize"))
	if err != nil {
		return nil, err
	}
	name := fmt.Sprintf("%s_cdg_best_%d", f.env.Unit().Name(), round)
	bestTemplate, best, err := f.harvest(skel, res.X, name)
	if err != nil {
		return nil, err
	}
	report := &Report{
		Unit:            f.env.Unit().Name(),
		Target:          target,
		TargetEvents:    append([]int(nil), targetEvents...),
		ChosenTemplates: chosen,
		Candidate:       candidate,
		Skeleton:        skel,
		Phases:          []PhaseStats{before, sampling, optimization, best},
		BestWeights:     res.X,
		BestTemplate:    bestTemplate,
		Progress:        res.History,
		TotalSims:       f.env.Simulations() - simsAtStart,
	}
	if err := f.syncRunDone(round, report.TotalSims); err != nil {
		return nil, err
	}
	return report, nil
}

// beforePhase snapshots the repository as a report's "before" column.
func (f *Flow) beforePhase() PhaseStats {
	return PhaseStats{
		Name:        "before",
		Description: fmt.Sprintf("%d sims", f.repo.Sims()),
		Counts:      f.repo.Total().Clone(),
	}
}

// syncRunStart validates (replay) or records (live) a run's opening
// record: the real targets, the approximated target and the coarse
// search's choice are pure functions of the repository and the earlier
// rounds, so a mismatch means the journal belongs to a different
// campaign, or to a build that ranks the templates differently.
func (f *Flow) syncRunStart(target *neighbors.Target, targetEvents []int, chosen []tac.TemplateScore) error {
	want := runStartRec{
		Targets:       append([]int{}, targetEvents...),
		ApproxEvents:  target.Events(),
		ApproxWeights: target.Weights(),
	}
	for _, ts := range chosen {
		want.Chosen = append(want.Chosen, ts.Name)
	}
	var got runStartRec
	ok, err := f.cur.Take("run_start", &got)
	if err != nil {
		return err
	}
	if !ok {
		return f.cur.Append("run_start", want)
	}
	if !slices.Equal(got.Targets, want.Targets) || !slices.Equal(got.ApproxEvents, want.ApproxEvents) ||
		!slices.Equal(got.ApproxWeights, want.ApproxWeights) {
		return fmt.Errorf("core: journal run_start record does not match this run's targets (journal belongs to a different campaign)")
	}
	// A journal written before the record named the choice replays as
	// it always did.
	if got.Chosen != nil && !slices.Equal(got.Chosen, want.Chosen) {
		return fmt.Errorf("core: journal run_start record chose templates %v, this run's coarse search chooses %v (the journal was written under another ranking)",
			got.Chosen, want.Chosen)
	}
	return nil
}

// syncRunDone validates (replay) or records (live) a round's closing
// integrity check.
func (f *Flow) syncRunDone(round int, totalSims uint64) error {
	var got runDoneRec
	ok, err := f.cur.Take("run_done", &got)
	if err != nil {
		return err
	}
	if !ok {
		return f.cur.Append("run_done", runDoneRec{Round: round, TotalSims: totalSims})
	}
	if got.Round != round || got.TotalSims != totalSims {
		return fmt.Errorf("core: journal run_done record (round %d, %d sims) does not match this run (round %d, %d sims)",
			got.Round, got.TotalSims, round, totalSims)
	}
	return nil
}

// MergeTemplates unions the parameters of the given templates (highest
// TAC rank first) into one candidate template. For weight parameters
// appearing in several templates, entries are unioned and each entry
// keeps its maximum weight; range parameters merge to the widest span.
// If the same name appears as different parameter kinds, the
// higher-ranked template's kind wins. This realizes the paper's "the
// parameters in these test-templates are ... the ones used in the
// fine-grained search" with a concrete, deterministic policy.
func MergeTemplates(name string, ts []*template.Template) *template.Template {
	merged := template.New(name)
	for _, t := range ts {
		for _, p := range t.Params {
			existing, ok := merged.Param(p.ParamName())
			if !ok {
				merged.Params = append(merged.Params, p.CloneParam())
				continue
			}
			switch have := existing.(type) {
			case *template.WeightParam:
				add, ok := p.(*template.WeightParam)
				if !ok {
					continue // kind conflict: first (higher-ranked) wins
				}
				for _, e := range add.Entries {
					if cur, ok := have.Entry(e.Label()); ok {
						if e.Weight > cur.Weight {
							for i := range have.Entries {
								if have.Entries[i].Label() == e.Label() {
									have.Entries[i].Weight = e.Weight
								}
							}
						}
						continue
					}
					have.Entries = append(have.Entries, e)
				}
			case *template.RangeParam:
				add, ok := p.(*template.RangeParam)
				if !ok {
					continue
				}
				if add.Lo < have.Lo {
					have.Lo = add.Lo
				}
				if add.Hi > have.Hi {
					have.Hi = add.Hi
				}
			}
		}
	}
	return merged
}
