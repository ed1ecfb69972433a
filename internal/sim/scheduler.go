package sim

import (
	"context"
	"fmt"
	"sync"
	"sync/atomic"
	"time"

	"repro/internal/coverage"
	"repro/internal/duv"
	"repro/internal/generator"
	"repro/internal/obs"
	"repro/internal/rng"
	"repro/internal/template"
)

// Job is a batch simulation accepted by the environment's scheduler: N
// test-instances of one compiled template. Results are retrieved with
// Wait; a Job may be waited on by at most one goroutine and is fulfilled
// even if the submitter never waits.
type Job struct {
	unit    duv.DUV
	plan    *generator.Plan
	seed    *rng.RNG // the job's batch seed stream
	pending atomic.Int64
	mu      sync.Mutex
	total   *coverage.Counts
	done    chan struct{}

	// Relocation identity: everything a remote worker needs to reproduce
	// a chunk of this job bit-identically (read-only after Submit).
	unitName  string
	tmpl      *template.Template // nil = pure defaults
	seedState uint64             // seed's raw state; rng.New(seedState) reproduces it

	// Trace-correlation identity (read-only after Submit, purely
	// observational): the owning campaign and the job's batch sequence
	// number, stamped onto chunk spans and outbound farm frames.
	campaign string
	batch    uint64

	// ctx, when non-nil, lets queued chunks abort without simulating. The
	// job still completes (Wait returns), but with partial counts — the
	// submitter is expected to notice ctx.Err() and discard them.
	ctx context.Context
}

// canceled reports whether the job's context has been canceled. Safe on
// a nil context (never canceled).
func (j *Job) canceled() bool {
	return j.ctx != nil && j.ctx.Err() != nil
}

// Wait blocks until every instance of the job has been simulated and
// returns the aggregated counts.
func (j *Job) Wait() *coverage.Counts {
	<-j.done
	return j.total
}

// chunk is one contiguous shard [lo, hi) of a job's instance indices.
// Instance i's generator seed depends only on the job's batch seed and i,
// never on which worker runs it or in which order, so any sharding of a
// job yields bit-identical aggregates. id is the process-unique chunk
// sequence number used for cross-process trace correlation; it plays no
// part in seeding or merging.
type chunk struct {
	job    *Job
	lo, hi int
	id     uint64
}

// chunkSeq issues process-unique chunk IDs. A plain counter (not
// per-environment) so merged fleet traces never alias two chunks from
// different environments of the same process.
var chunkSeq atomic.Uint64

// RemoteChunk is a relocatable chunk description: everything another
// process needs to reproduce the chunk's simulations bit for bit.
// Instance i draws its generator seed from Seed's stream via
// SplitIndex(i), exactly as the local workers do.
type RemoteChunk struct {
	// Unit names the DUV (duv.New on the remote side).
	Unit string
	// Template is the batch's template; nil means pure default behavior.
	Template *template.Template
	// Seed is the batch seed's raw state (rng.New(Seed) reconstructs it).
	Seed uint64
	// Lo, Hi bound the chunk's instance indices: [Lo, Hi).
	Lo, Hi int
	// Events is the unit's coverage model size, for response validation.
	Events int

	// Campaign, Batch and Chunk are the chunk's trace-correlation
	// identity: the owning campaign ID ("" for standalone runs), the
	// job's batch sequence number, and the process-unique chunk
	// sequence number. Purely observational — runners carry them onto
	// worker-side spans so a merged fleet trace lines up, and no result
	// bit ever depends on them.
	Campaign string
	Batch    uint64
	Chunk    uint64
}

// ChunkRunner executes relocated chunks — the seam where a distributed
// backend (internal/farm's dispatcher) plugs into the scheduler. A
// runner merges the chunk's aggregate into a caller-owned dst (sized to
// c.Events) or returns an error; on error (or a malformed aggregate) the
// scheduler discards dst's content and re-executes the chunk locally, so
// runners may fail freely without affecting results. Each remote lane
// keeps one scratch aggregate, so a healthy farm path allocates nothing
// per chunk. Implementations must be safe for concurrent use by many
// lanes.
type ChunkRunner interface {
	RunChunkInto(c RemoteChunk, dst *coverage.Counts) error
}

// Scheduler is a persistent worker pool for batch simulation. Workers
// are started once (lazily, on the first job) and live until Close;
// every job, from any goroutine, is sharded into chunks and streamed
// through the same pool, so concurrent jobs fill the machine instead of
// spawning and joining a fresh goroutine set per batch. Remote lanes
// (attachRunner) pull from the same queue as the local workers.
type Scheduler struct {
	workers int
	tasks   chan chunk
	start   sync.Once
	stop    sync.Once
	obs     *schedObs
}

// schedObs holds the scheduler's pre-resolved metric handles so the
// worker loop updates them with plain atomic ops — no registry lookups,
// no locks — and a disabled run (obs == nil) pays one pointer check per
// chunk. Purely observational: results and seeding are untouched.
type schedObs struct {
	tracer    *obs.Tracer
	jobs      *obs.Counter // jobs submitted
	jobsDone  *obs.Counter // jobs fully completed
	chunks    *obs.Counter // chunks completed
	instances *obs.Counter // test-instances simulated
	remote    *obs.Counter // chunks completed by a remote runner
	fallbacks *obs.Counter // remote failures re-executed locally
	aborted   *obs.Counter // queued chunks dropped by cancellation
	queue     *obs.Gauge   // chunks queued but not yet picked up
	chunkNs   *obs.Histogram
	chunkSize *obs.Histogram
	simNs     *obs.Histogram // per-instance latency (chunk mean)
	busy      []*obs.Counter // per-worker busy nanoseconds
}

func newSchedObs(rec *obs.Recorder, workers int) *schedObs {
	if rec == nil || (rec.Metrics == nil && rec.Trace == nil) {
		return nil
	}
	o := &schedObs{
		tracer:    rec.Trace,
		jobs:      rec.Counter("sim.jobs_submitted"),
		jobsDone:  rec.Counter("sim.jobs_completed"),
		chunks:    rec.Counter("sim.chunks_completed"),
		instances: rec.Counter("sim.instances_completed"),
		remote:    rec.Counter("sim.chunks_remote"),
		fallbacks: rec.Counter("sim.remote_fallbacks"),
		aborted:   rec.Counter("sim.chunks_aborted"),
		queue:     rec.Gauge("sim.queue_depth"),
		chunkNs:   rec.Histogram("sim.chunk_ns", obs.LatencyBounds()),
		chunkSize: rec.Histogram("sim.chunk_size", obs.SizeBounds()),
		simNs:     rec.Histogram("sim.sim_ns", obs.LatencyBounds()),
		busy:      make([]*obs.Counter, workers),
	}
	for w := range o.busy {
		o.busy[w] = rec.Counter(fmt.Sprintf("sim.worker.%02d.busy_ns", w))
	}
	return o
}

// setRecorder installs the scheduler's observability. It must be called
// before the first job is enqueued (workers start lazily, so the
// handles are published to them by the pool-start synchronization).
func (s *Scheduler) setRecorder(rec *obs.Recorder) {
	s.obs = newSchedObs(rec, s.workers)
}

// newScheduler sizes a pool with the given worker count (>= 1). The task
// queue is buffered so submitters rarely block while the pool drains.
func newScheduler(workers int) *Scheduler {
	if workers < 1 {
		workers = 1
	}
	return &Scheduler{workers: workers, tasks: make(chan chunk, workers*8)}
}

// enqueue shards a job of n instances into chunks and hands them to the
// pool. It may block if the task queue is full; workers always drain it,
// so submission cannot deadlock.
func (s *Scheduler) enqueue(j *Job, n int) {
	s.start.Do(func() {
		for w := 0; w < s.workers; w++ {
			go s.work(w)
		}
	})
	// Shard into at most 2 chunks per worker, at least 8 instances per
	// chunk so chunk bookkeeping stays negligible next to simulation.
	size := (n + 2*s.workers - 1) / (2 * s.workers)
	if size < 8 {
		size = 8
	}
	chunks := (n + size - 1) / size
	j.pending.Store(int64(chunks))
	o := s.obs
	o.countJob()
	for lo := 0; lo < n; lo += size {
		hi := lo + size
		if hi > n {
			hi = n
		}
		o.countEnqueue()
		s.tasks <- chunk{job: j, lo: lo, hi: hi, id: chunkSeq.Add(1)}
	}
}

// attachRunner starts lanes goroutines that delegate chunks to r,
// falling back to local execution when r fails. Lanes exit when the
// scheduler closes, exactly like local workers.
func (s *Scheduler) attachRunner(r ChunkRunner, lanes int) {
	if r == nil || lanes < 1 {
		return
	}
	for i := 0; i < lanes; i++ {
		go s.remoteWork(i, r)
	}
}

// countJob / countEnqueue are nil-safe submission-side hooks.
func (o *schedObs) countJob() {
	if o != nil {
		o.jobs.Inc()
	}
}

func (o *schedObs) countEnqueue() {
	if o != nil {
		o.queue.Add(1)
	}
}

// scratchFor returns a lane-local scratch aggregate for an n-event
// chunk: the previous scratch reset in place when the size still
// matches, a fresh one otherwise. Jobs against one model share a size,
// so steady state allocates nothing.
func scratchFor(scratch *coverage.Counts, n int) *coverage.Counts {
	if scratch == nil || scratch.Len() != n {
		return coverage.NewCounts(n)
	}
	scratch.Reset()
	return scratch
}

// work is one worker's loop: simulate a chunk into the worker's scratch
// aggregate, merge it into the job, and complete the job when its last
// chunk lands. Counts merging is commutative, so completion order does
// not affect the result; the scratch is private to the worker and reset
// per chunk, so the loop allocates one generator per chunk and nothing
// else. Every metric of a chunk is published before finish can complete
// the job, so a caller that Waits and then snapshots reads final totals.
func (s *Scheduler) work(id int) {
	var scratch *coverage.Counts
	for t := range s.tasks {
		o := s.obs
		if t.job.canceled() {
			// Cancellation: the chunk still lands (so Wait returns and the
			// job drains) but contributes nothing — no simulation runs.
			if o != nil {
				o.queue.Add(-1)
				o.aborted.Inc()
			}
			s.finish(t)
			continue
		}
		scratch = scratchFor(scratch, t.job.total.Len())
		if o == nil {
			s.simulateChunkInto(t, scratch)
			s.merge(t, scratch)
			s.finish(t)
			continue
		}
		o.queue.Add(-1)
		sp := o.tracer.Span("sim", "chunk").WithTid(100 + id)
		start := time.Now()
		s.simulateChunkInto(t, scratch)
		s.merge(t, scratch)
		dur := time.Since(start)
		n := uint64(t.hi - t.lo)
		if sp != nil {
			sp.SetArg("instances", n)
			setTraceIdentity(sp, t)
			sp.End()
		}
		o.busy[id].Add(uint64(dur))
		o.chunkNs.Observe(uint64(dur))
		o.chunkSize.Observe(n)
		o.simNs.Observe(uint64(dur) / n)
		o.chunks.Inc()
		o.instances.Add(n)
		s.finish(t)
	}
}

// remoteWork is one remote lane's loop: hand a chunk to the runner and
// merge its aggregate, re-executing locally if the runner fails or
// returns a malformed result. Either way the chunk lands exactly once,
// so aggregates can never double-count — the core of the farm's
// fault-tolerance contract. The runner merges straight into the lane's
// scratch aggregate, so the healthy remote path allocates nothing per
// chunk.
func (s *Scheduler) remoteWork(lane int, r ChunkRunner) {
	var scratch *coverage.Counts
	for t := range s.tasks {
		o := s.obs
		if t.job.canceled() {
			if o != nil {
				o.queue.Add(-1)
				o.aborted.Inc()
			}
			s.finish(t)
			continue
		}
		n := uint64(t.hi - t.lo)
		var sp *obs.Span
		var start time.Time
		if o != nil {
			o.queue.Add(-1)
			sp = o.tracer.Span("sim", "chunk_remote").WithTid(300 + lane)
			start = time.Now()
		}
		events := t.job.total.Len()
		rc := RemoteChunk{
			Unit:     t.job.unitName,
			Template: t.job.tmpl,
			Seed:     t.job.seedState,
			Lo:       t.lo,
			Hi:       t.hi,
			Events:   events,
			Campaign: t.job.campaign,
			Batch:    t.job.batch,
			Chunk:    t.id,
		}
		scratch = scratchFor(scratch, events)
		err := r.RunChunkInto(rc, scratch)
		remote := err == nil && scratch.Len() == events && scratch.Sims() == n
		if !remote {
			scratch.Reset() // discard any partial merge before fallback
			// Remote execution failed (worker down, timeout, bad frame):
			// the chunk must still land exactly once, so run it here —
			// unless cancellation arrived while the remote attempt ran.
			if o != nil {
				o.fallbacks.Inc()
			}
			if t.job.canceled() {
				if o != nil {
					o.aborted.Inc()
				}
			} else {
				s.simulateChunkInto(t, scratch)
			}
		}
		s.merge(t, scratch)
		if o == nil {
			s.finish(t)
			continue
		}
		dur := time.Since(start)
		if sp != nil {
			sp.SetArg("instances", n)
			sp.SetArg("remote", remote)
			setTraceIdentity(sp, t)
			sp.End()
		}
		o.chunkNs.Observe(uint64(dur))
		o.chunkSize.Observe(n)
		if n > 0 {
			o.simNs.Observe(uint64(dur) / n)
		}
		o.chunks.Inc()
		o.instances.Add(n)
		if remote {
			o.remote.Inc()
		}
		s.finish(t)
	}
}

// setTraceIdentity stamps the chunk's correlation identity onto its
// span: the IDs a worker-side span on another host echoes back, so the
// merged fleet trace lines parent and child up.
func setTraceIdentity(sp *obs.Span, t chunk) {
	sp.SetArg("chunk", t.id)
	sp.SetArg("batch", t.job.batch)
	if t.job.campaign != "" {
		sp.SetArg("campaign", t.job.campaign)
	}
}

// simulateChunkInto runs one chunk locally, merging into the caller's
// scratch aggregate. This is the simulate hot path: it takes no locks
// and touches no observability state. A chunk a lane picked up drains
// whole; cancellation acts between chunks (Job.canceled).
func (s *Scheduler) simulateChunkInto(t chunk, dst *coverage.Counts) {
	j := t.job
	simulateRange(nil, j.unit, j.plan, j.seed, t.lo, t.hi, dst) // no context: cannot fail
}

// merge adds one chunk's aggregate to its job — exactly once per chunk,
// whoever computed it. Counts merging is commutative, so completion
// order does not affect the result, and merging copies, so callers may
// reuse counts as their scratch for the next chunk.
func (s *Scheduler) merge(t chunk, counts *coverage.Counts) {
	j := t.job
	j.mu.Lock()
	j.total.Merge(counts)
	j.mu.Unlock()
}

// finish lands one chunk — merged, or contributing nothing after a
// cancellation — and completes the job if it was the last. It is the
// last thing a lane does for a chunk: whatever the lane publishes about
// the chunk happens before a Wait on the job can return.
func (s *Scheduler) finish(t chunk) {
	j := t.job
	if j.pending.Add(-1) == 0 {
		if s.obs != nil {
			s.obs.jobsDone.Inc()
		}
		close(j.done)
	}
}

// Close shuts the pool down; idle workers and remote lanes exit after
// finishing queued work. No job may be submitted after Close. Close is
// idempotent.
func (s *Scheduler) Close() {
	s.stop.Do(func() { close(s.tasks) })
}
