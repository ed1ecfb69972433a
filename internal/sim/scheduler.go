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
// scheduler discards dst's content and re-executes the chunk locally
// unless its job was canceled meanwhile, so runners may fail freely
// without affecting results. Each remote lane keeps one scratch
// aggregate, so a healthy farm path allocates nothing per chunk.
// Implementations must be safe for concurrent use by many lanes.
type ChunkRunner interface {
	RunChunkInto(c RemoteChunk, dst *coverage.Counts) error
}

// Scheduler is a persistent pool of lanes for batch simulation. Every
// job, from any goroutine, is sharded into chunks and streamed through
// one queue, so concurrent jobs fill the machine instead of spawning and
// joining a fresh goroutine set per batch. Each lane runs the same loop
// (lane): a local worker is a lane with no runner, started once (lazily,
// on the first job); a remote lane (attachRunner) hands its chunks to a
// ChunkRunner. Lanes live until Close.
type Scheduler struct {
	workers int
	tasks   chan chunk
	start   sync.Once
	stop    sync.Once
	obs     *schedObs
}

// schedObs holds the scheduler's pre-resolved metric handles so the
// lane loop updates them with plain atomic ops — no registry lookups,
// no locks. Every handle is nil-safe; on is false when no recorder is
// installed, and keeps clock reads and span arguments off that path.
// Purely observational: results and seeding are untouched.
type schedObs struct {
	on        bool
	tracer    *obs.Tracer
	jobs      *obs.Counter // jobs submitted
	jobsDone  *obs.Counter // jobs fully completed
	chunks    *obs.Counter // chunks completed
	instances *obs.Counter // test-instances simulated
	remote    *obs.Counter // chunks completed by a remote runner
	fallbacks *obs.Counter // remote failures re-executed locally
	aborted   *obs.Counter // chunks dropped by cancellation
	queue     *obs.Gauge   // chunks queued but not yet picked up
	chunkNs   *obs.Histogram
	chunkSize *obs.Histogram
	simNs     *obs.Histogram // per-instance latency (chunk mean)
	busy      []*obs.Counter // per-local-worker busy nanoseconds
}

func newSchedObs(rec *obs.Recorder, workers int) *schedObs {
	if rec == nil || (rec.Metrics == nil && rec.Trace == nil) {
		return &schedObs{}
	}
	o := &schedObs{
		on:        true,
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
// before the first job is enqueued (lanes read the handles per chunk,
// so the queue hand-off publishes them).
func (s *Scheduler) setRecorder(rec *obs.Recorder) {
	s.obs = newSchedObs(rec, s.workers)
}

// newScheduler sizes a pool with the given worker count (>= 1). The task
// queue is buffered so submitters rarely block while the pool drains.
func newScheduler(workers int) *Scheduler {
	if workers < 1 {
		workers = 1
	}
	return &Scheduler{workers: workers, tasks: make(chan chunk, workers*8), obs: &schedObs{}}
}

// enqueue shards a job of n instances into chunks and hands them to the
// pool. It may block if the task queue is full; lanes always drain it,
// so submission cannot deadlock.
func (s *Scheduler) enqueue(j *Job, n int) {
	s.start.Do(func() {
		for w := 0; w < s.workers; w++ {
			go s.lane(w, nil)
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
	s.obs.jobs.Inc()
	for lo := 0; lo < n; lo += size {
		hi := lo + size
		if hi > n {
			hi = n
		}
		s.obs.queue.Add(1)
		s.tasks <- chunk{job: j, lo: lo, hi: hi, id: chunkSeq.Add(1)}
	}
}

// attachRunner starts lanes remote lanes that delegate chunks to r.
// They exit when the scheduler closes, exactly like local workers.
func (s *Scheduler) attachRunner(r ChunkRunner, lanes int) {
	if r == nil || lanes < 1 {
		return
	}
	for i := 0; i < lanes; i++ {
		go s.lane(i, r)
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

// lane is the one chunk loop of the pool. A local worker (r nil)
// simulates each chunk into its scratch aggregate; a remote lane hands
// the chunk to r and simulates it itself only when r fails or returns a
// malformed aggregate and the job is still live. Every chunk lands in
// exactly one outcome — completed (remotely or here) or aborted by its
// job's cancellation — and is merged into its job at most once, so
// aggregates never double-count. Counts merging is commutative, so
// completion order does not affect the result. A chunk a lane picked up
// drains whole; cancellation acts between chunks (Job.canceled). Every
// metric of a chunk is published before finish can complete the job, so
// a caller that Waits and then snapshots reads final totals.
func (s *Scheduler) lane(id int, r ChunkRunner) {
	name, tid := "chunk", 100+id
	if r != nil {
		name, tid = "chunk_remote", 300+id
	}
	var scratch *coverage.Counts
	for t := range s.tasks {
		o, j := s.obs, t.job
		o.queue.Add(-1)
		var sp *obs.Span
		var start time.Time
		if o.on {
			sp = o.tracer.Span("sim", name).WithTid(tid)
			start = time.Now()
		}
		scratch = scratchFor(scratch, j.total.Len())
		remote := r != nil && !j.canceled() && runRemote(r, t, scratch)
		if !remote {
			if j.canceled() {
				// The chunk still lands (so Wait returns and the job
				// drains) but contributes nothing.
				o.aborted.Inc()
				s.finish(t)
				continue
			}
			if r != nil {
				o.fallbacks.Inc()
				scratch.Reset() // discard any partial merge
			}
			simulateRange(nil, j.unit, j.plan, j.seed, t.lo, t.hi, scratch) // no context: cannot fail
		}
		j.mu.Lock()
		j.total.Merge(scratch)
		j.mu.Unlock()
		n := uint64(t.hi - t.lo)
		if o.on {
			dur := uint64(time.Since(start))
			if sp != nil {
				// The chunk's correlation identity: the IDs a worker-side
				// span on another host echoes back, so the merged fleet
				// trace lines parent and child up.
				sp.SetArg("instances", n)
				sp.SetArg("chunk", t.id)
				sp.SetArg("batch", j.batch)
				if j.campaign != "" {
					sp.SetArg("campaign", j.campaign)
				}
				if r != nil {
					sp.SetArg("remote", remote)
				}
				sp.End()
			}
			if r == nil {
				o.busy[id].Add(dur)
			}
			o.chunkNs.Observe(dur)
			o.chunkSize.Observe(n)
			o.simNs.Observe(dur / n)
		}
		o.chunks.Inc()
		o.instances.Add(n)
		if remote {
			o.remote.Inc()
		}
		s.finish(t)
	}
}

// runRemote hands chunk t to r and reports whether r merged a
// well-formed aggregate of it into dst.
func runRemote(r ChunkRunner, t chunk, dst *coverage.Counts) bool {
	j := t.job
	err := r.RunChunkInto(RemoteChunk{
		Unit:     j.unitName,
		Template: j.tmpl,
		Seed:     j.seedState,
		Lo:       t.lo,
		Hi:       t.hi,
		Events:   dst.Len(),
		Campaign: j.campaign,
		Batch:    j.batch,
		Chunk:    t.id,
	}, dst)
	return err == nil && dst.Len() == j.total.Len() && dst.Sims() == uint64(t.hi-t.lo)
}

// finish lands one chunk — merged, or contributing nothing after a
// cancellation — and completes the job if it was the last. It is the
// last thing a lane does for a chunk: whatever the lane publishes about
// the chunk happens before a Wait on the job can return.
func (s *Scheduler) finish(t chunk) {
	j := t.job
	if j.pending.Add(-1) == 0 {
		s.obs.jobsDone.Inc()
		close(j.done)
	}
}

// Close shuts the pool down; idle workers and remote lanes exit after
// finishing queued work. No job may be submitted after Close. Close is
// idempotent.
func (s *Scheduler) Close() {
	s.stop.Do(func() { close(s.tasks) })
}
