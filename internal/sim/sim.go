// Package sim implements the batch simulation environment of the AS-CDG
// reproduction: the stand-in for the proprietary simulation farm the
// CDG-Runner submits jobs to (paper Section I, Fig. 2).
//
// The environment takes (test-template, N) jobs, shards each job into
// chunks that stream through one persistent worker-pool scheduler, and
// returns the aggregated coverage counts. Many jobs may be in flight at
// once (Submit/Wait); the pool is shared by all of them. Seeding is
// deterministic: every batch gets a fresh seed stream derived from the
// environment's base seed and a batch counter assigned at submission, so
// an entire AS-CDG run is reproducible from one seed — and bit-identical
// across worker counts and scheduling orders — while repeated
// submissions of the same template still see fresh sampling noise (the
// "dynamic noise" the optimizer must absorb, Section IV-E).
//
// Each job's template is compiled once, at submission, into a
// generator.Plan shared read-only by all N instances, so per-decision
// parameter resolution and allocation are off the per-simulation path;
// the unit's defaults are compiled once per environment
// (generator.Binding), so a plan compiles only the template's overrides.
// Nothing caches plans: a compile costs about a microsecond, and a batch
// runs at least eight simulations of 3–45 µs each.
//
// Chunks are relocatable: instance i of a batch is seeded purely from
// (batch seed, i), never from which worker runs it or in which order, so
// a chunk may execute in another goroutine — or another process, via a
// ChunkRunner such as the internal/farm dispatcher — and contribute the
// same bits to the aggregate.
package sim

import (
	"context"
	"errors"
	"fmt"
	"runtime"
	"sync/atomic"

	"repro/internal/coverage"
	"repro/internal/duv"
	"repro/internal/generator"
	"repro/internal/journal"
	"repro/internal/obs"
	"repro/internal/rng"
	"repro/internal/template"
)

// ErrClosed is returned by Submit, Run and friends after Close.
var ErrClosed = errors.New("sim: environment is closed")

// Env is a batch simulation environment bound to one DUV.
type Env struct {
	unit     duv.DUV
	unitName string
	workers  int
	seed     *rng.RNG
	batch    atomic.Uint64
	sims     atomic.Uint64
	closed   atomic.Bool
	bind     *generator.Binding // the unit's defaults, compiled once
	sched    *Scheduler
	corpora  *CorpusCache    // nil = every corpus is built (SetCorpusCache)
	ctx      context.Context // nil = never canceled (SetContext)
	campaign string          // trace-correlation identity (SetRecorder)

	// Observability handles (nil when disabled; all nil-safe).
	mInstances *obs.Counter   // sequential-path instances (the scheduler counts its own)
	hBatchSize *obs.Histogram // its count is the batches submitted

	mCorpusHits, mCorpusMisses, mCorpusEvictions *obs.Counter
}

// MaxWorkers bounds a pool: an environment's local workers, and its
// remote lanes apiece. Simulation is CPU-bound, so workers beyond the
// machine's cores only wait, and each one costs a goroutine, a scratch
// aggregate and eight slots of the task queue. 1024 is above the core
// count of any machine the flow runs on and, at the farm's default eight
// connections per farmd, lanes for a fleet of 128. A larger count is
// refused where it enters (core.Config.Validate, cli.Workers.Check), not
// handed to NewEnv, whose queue it could not allocate.
const MaxWorkers = 1024

// NewEnv creates an environment for the unit with the given base seed.
// workers <= 0 selects GOMAXPROCS; callers keep it at most MaxWorkers.
func NewEnv(unit duv.DUV, seed uint64, workers int) *Env {
	if workers <= 0 {
		workers = runtime.GOMAXPROCS(0)
	}
	return &Env{
		unit:     unit,
		unitName: unit.Name(),
		workers:  workers,
		seed:     rng.New(seed),
		bind:     generator.Bind(unit.Defaults()),
		sched:    newScheduler(workers),
	}
}

// SetRecorder installs the environment's observability. It must be
// called before the first simulation is requested (the worker pool
// starts lazily on the first job, which publishes the handles to the
// workers). A nil recorder — the default — keeps every simulate path
// free of clocks and atomics. Instrumentation is purely observational:
// seeding, sharding, and merge order are identical with it on or off.
func (e *Env) SetRecorder(rec *obs.Recorder) {
	e.campaign = rec.CampaignID()
	e.mInstances = rec.Counter("sim.instances_completed")
	e.hBatchSize = rec.Histogram("sim.batch_size", obs.SizeBounds())
	e.mCorpusHits = rec.Counter("sim.corpus_cache.hits")
	e.mCorpusMisses = rec.Counter("sim.corpus_cache.misses")
	e.mCorpusEvictions = rec.Counter("sim.corpus_cache.evictions")
	e.sched.setRecorder(rec)
}

// SetCorpusCache shares c's finished corpus builds with this
// environment: BuildCorpusJournaled replays a cached build instead of
// simulating it, and stores the builds it completes. Purely a throughput
// knob — repositories, counters and journals are identical with or
// without a cache. Call before the first build; nil (the default)
// builds every corpus.
func (e *Env) SetCorpusCache(c *CorpusCache) { e.corpora = c }

// SetContext installs a cancellation context. Submissions after the
// context is canceled fail with ctx.Err(); chunks already queued on the
// scheduler abort without simulating (their jobs complete with the
// counts collected so far), while chunks a worker already picked up
// drain normally. Like SetRecorder it must be called from the goroutine
// that submits jobs, before they are submitted; a nil context (the
// default) disables cancellation.
func (e *Env) SetContext(ctx context.Context) { e.ctx = ctx }

// ctxErr reports the environment's cancellation state.
func (e *Env) ctxErr() error {
	if e.ctx == nil {
		return nil
	}
	return e.ctx.Err()
}

// AttachRunner adds lanes remote-execution goroutines that pull chunks
// from the same queue as the local workers and delegate them to r —
// the seam where a distributed backend (internal/farm) plugs in. Local
// and remote execution mix freely: whichever lane pulls a chunk runs
// it, and if r fails the chunk is re-executed locally by the same lane,
// so a runner may fail, stall, or disappear without affecting results
// or double-counting a chunk. Call before the first Submit.
func (e *Env) AttachRunner(r ChunkRunner, lanes int) {
	e.sched.attachRunner(r, lanes)
}

// Close releases the environment's worker pool. Simulation requests
// after Close return ErrClosed. Leaving an environment unclosed leaks
// its idle workers until process exit — harmless for CLIs, worth
// avoiding in long-lived servers and benchmarks. Close is idempotent.
func (e *Env) Close() {
	if e.closed.Swap(true) {
		return
	}
	e.sched.Close()
}

// Unit returns the DUV the environment simulates.
func (e *Env) Unit() duv.DUV { return e.unit }

// Simulations returns the total number of simulations run so far — the
// cost metric every phase of the paper's evaluation reports. Submitted
// but unfinished jobs are already counted.
func (e *Env) Simulations() uint64 { return e.sims.Load() }

// Batches returns the number of batches submitted so far. Together with
// Simulations it is the environment's deterministic seeding state: a
// journal checkpoint records both, and RestoreCounters replays them so
// a resumed run draws the exact batch seeds the original would have.
func (e *Env) Batches() uint64 { return e.batch.Load() }

// Seed returns the environment's base seed (splitting never advances
// the base stream, so this is the NewEnv seed for the environment's
// whole life).
func (e *Env) Seed() uint64 { return e.seed.State() }

// RestoreCounters rewinds (or fast-forwards) the batch and simulation
// counters to a journaled checkpoint. Only meaningful while no jobs are
// in flight — the flow calls it between replayed phases.
func (e *Env) RestoreCounters(batches, sims uint64) {
	e.batch.Store(batches)
	e.sims.Store(sims)
}

// plan compiles the unit's sampling plan for tmpl, once per batch or
// chunk. A template the unit cannot run (a parameter the unit does not
// declare, a symbolic value outside a parameter's vocabulary, a setting
// of the wrong type) is an error here, before any instance runs and
// before the batch counter moves.
func (e *Env) plan(tmpl *template.Template) (*generator.Plan, error) {
	plan := e.bind.Compile(tmpl)
	if err := plan.Err(); err != nil {
		if tmpl != nil {
			return nil, fmt.Errorf("sim: unit %q: template %q: %w", e.unitName, tmpl.Name, err)
		}
		return nil, fmt.Errorf("sim: unit %q: %w", e.unitName, err)
	}
	return plan, nil
}

// simulateRange is the one per-instance loop of the package: instances
// [lo, hi) of the batch seeded by batchSeed, each added to dst. Instance
// i's generator seed depends only on (batch seed, i). One generator
// serves the whole range, so an instance costs a single allocation: the
// Vector its Simulate returns. ctx is polled between instances and its
// error is the only one returned; nil (an environment without SetContext,
// and every chunk path: chunks always run to completion) never cancels.
func simulateRange(ctx context.Context, unit duv.DUV, plan *generator.Plan, batchSeed *rng.RNG, lo, hi int, dst *coverage.Counts) error {
	if lo >= hi {
		return nil
	}
	g := generator.NewFromPlan(plan, 0)
	for i := lo; i < hi; i++ {
		if ctx != nil {
			if err := ctx.Err(); err != nil {
				return err
			}
		}
		g.Reset(batchSeed.SplitIndex(uint64(i)).Uint64())
		dst.Add(unit.Simulate(g))
	}
	return nil
}

// Submit enqueues a batch of n test-instances of tmpl (nil = pure
// default behavior) on the scheduler and returns immediately. The batch
// seed is drawn from the environment's counter at submission, so a fixed
// submission order reproduces a fixed result regardless of worker count
// or completion order. Wait on the returned job for the aggregate.
// After Close, Submit returns ErrClosed.
func (e *Env) Submit(tmpl *template.Template, n int) (*Job, error) {
	if e.closed.Load() {
		return nil, ErrClosed
	}
	if err := e.ctxErr(); err != nil {
		return nil, err
	}
	plan, err := e.plan(tmpl)
	if err != nil {
		return nil, err
	}
	batchNum := e.batch.Add(1)
	batchSeed := e.seed.SplitIndex(batchNum)
	job := &Job{
		unit:      e.unit,
		unitName:  e.unitName,
		tmpl:      tmpl,
		plan:      plan,
		seed:      batchSeed,
		seedState: batchSeed.State(),
		total:     coverage.NewCountsFor(e.unit.Model()),
		done:      make(chan struct{}),
		ctx:       e.ctx,
		campaign:  e.campaign,
		batch:     batchNum,
	}
	if n <= 0 {
		close(job.done)
		return job, nil
	}
	e.sims.Add(uint64(n))
	e.hBatchSize.Observe(uint64(n))
	e.sched.enqueue(job, n)
	return job, nil
}

// Run simulates n test-instances of tmpl (nil = pure default behavior)
// and returns the aggregated counts. Single-worker environments run the
// batch inline — the sequential reference path the scheduler is tested
// against. After Close, Run returns ErrClosed.
func (e *Env) Run(tmpl *template.Template, n int) (*coverage.Counts, error) {
	if e.workers > 1 && n > 1 {
		job, err := e.Submit(tmpl, n)
		if err != nil {
			return nil, err
		}
		counts := job.Wait()
		if err := e.ctxErr(); err != nil {
			return nil, err
		}
		return counts, nil
	}
	if e.closed.Load() {
		return nil, ErrClosed
	}
	if err := e.ctxErr(); err != nil {
		return nil, err
	}
	plan, err := e.plan(tmpl)
	if err != nil {
		return nil, err
	}
	batchSeed := e.seed.SplitIndex(e.batch.Add(1))
	c := coverage.NewCountsFor(e.unit.Model())
	if err := simulateRange(e.ctx, e.unit, plan, batchSeed, 0, n, c); err != nil {
		return nil, err
	}
	if n > 0 {
		e.sims.Add(uint64(n))
		e.mInstances.Add(uint64(n))
		e.hBatchSize.Observe(uint64(n))
	}
	return c, nil
}

// RunChunkInto simulates instances [lo, hi) of a relocated batch — tmpl
// (nil = pure default behavior) under the given batch seed state — into
// a caller-owned aggregate. Instance i's generator seed depends only on
// (batch seed, i), so the result is bit-identical to the chunk's
// execution inside the originating environment, whichever process runs
// it: this is the farm worker's entry point. The environment's own batch
// counter is not consumed. dst must be sized to the unit's model; it is
// added to, not reset, so a caller may reuse one scratch Counts across
// chunks.
func (e *Env) RunChunkInto(tmpl *template.Template, seedState uint64, lo, hi int, dst *coverage.Counts) error {
	if e.closed.Load() {
		return ErrClosed
	}
	if lo < 0 || hi < lo {
		return fmt.Errorf("sim: bad chunk range [%d, %d)", lo, hi)
	}
	if dst.Len() != e.unit.Model().Size() {
		return fmt.Errorf("sim: chunk aggregate tracks %d events, model has %d", dst.Len(), e.unit.Model().Size())
	}
	plan, err := e.plan(tmpl)
	if err != nil {
		return err
	}
	simulateRange(nil, e.unit, plan, rng.New(seedState), lo, hi, dst) // no context: cannot fail
	if n := hi - lo; n > 0 {
		e.sims.Add(uint64(n))
		e.mInstances.Add(uint64(n))
	}
	return nil
}

// BuildCorpus simulates the unit's entire base regression suite,
// simsPerTemplate instances each, into a fresh repository. This stands
// in for the "several weeks of mainstream unit simulation" that precede
// AS-CDG in the paper's result tables ("Before CDG" columns). All
// templates' batches run concurrently on the scheduler.
func (e *Env) BuildCorpus(simsPerTemplate int) (*coverage.Repository, error) {
	return e.BuildCorpusJournaled(simsPerTemplate, nil)
}

// BuildCorpusJournaled is BuildCorpus with crash-safe checkpointing:
// the base templates are the batches of one RunBatches loop, journaled
// on cur as "corpus_template" records. A nil cursor degrades to a plain
// build.
//
// With a corpus cache installed (SetCorpusCache), the cache is the
// loop's precomputed records: a remainder the cache holds is replayed
// from it, and a build that started from counters (0, 0), as every
// flow's does, is stored for the next environment with the same key.
func (e *Env) BuildCorpusJournaled(simsPerTemplate int, cur *journal.Cursor) (*coverage.Repository, error) {
	templates := e.unit.BaseTemplates()
	batches := make([]Batch, len(templates))
	for i, t := range templates {
		batches[i] = Batch{I: i, Name: t.Name, Tmpl: t, Sims: simsPerTemplate}
	}
	var (
		key    corpusKey
		cached func() []BatchRec
	)
	if e.corpora != nil {
		key = corpusKey{
			unit: e.unitName, events: e.unit.Model().Size(), suite: suiteKey(templates),
			seed: e.Seed(), simsPerTemplate: simsPerTemplate,
			batches: e.batch.Load(), envSims: e.sims.Load(),
		}
		cached = func() []BatchRec {
			recs := e.corpora.get(key)
			if recs == nil {
				e.mCorpusMisses.Inc()
			} else {
				e.mCorpusHits.Inc()
			}
			return recs
		}
	}
	recs, err := e.RunBatches(cur, "corpus_template", batches, cached)
	if err != nil {
		return nil, err
	}
	repo := coverage.NewRepository(e.unit.Model())
	for _, rec := range recs {
		repo.RecordCounts(rec.Name, rec.Counts())
	}
	if e.corpora != nil && key.batches == 0 && key.envSims == 0 {
		e.mCorpusEvictions.Add(uint64(e.corpora.put(key, recs)))
	}
	return repo, nil
}

// corpusHeader identifies a standalone corpus journal; resume rejects a
// journal whose header does not match the requested build.
type corpusHeader struct {
	Kind            string `json:"kind"`
	Unit            string `json:"unit"`
	Seed            uint64 `json:"seed"`
	SimsPerTemplate int    `json:"sims_per_template"`
	Events          int    `json:"events"`
}

// OpenCorpusJournal opens (journal.Open) the standalone corpus-build
// journal at path for this environment — the crash-safety entry point
// for a CLI whose only simulation phase is BuildCorpus (tacquery). A
// missing file starts a fresh journal; an existing one
// resumes, and its header must match this environment's unit, seed and
// budget exactly. The caller owns closing the returned cursor.
func (e *Env) OpenCorpusJournal(path string, simsPerTemplate int, rec *obs.Recorder) (*journal.Cursor, error) {
	cur, resumed, err := journal.Open(path, "corpus_header", corpusHeader{
		Kind: "corpus", Unit: e.unitName, Seed: e.Seed(),
		SimsPerTemplate: simsPerTemplate, Events: e.unit.Model().Size(),
	}, rec, nil)
	if resumed {
		rec.Counter("sim.corpus_resumes").Inc()
	}
	return cur, err
}
