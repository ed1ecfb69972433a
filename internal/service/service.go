// Package service is the campaign layer of the AS-CDG system: a
// long-running daemon core that accepts CDG campaigns, runs them with
// bounded concurrency, and persists everything so a restarted daemon
// picks up exactly where a dead one left off (DESIGN.md §11, §12).
//
// A service is the one writer of its data root: New takes an exclusive
// kernel lock on <data>/lock (internal/lease) for the service's life
// and refuses a root another process holds. The kernel drops the lock
// when the process dies, kill -9 included, so a restart resumes at
// once. Every campaign owns a directory under Config.DataDir:
//
//	<data>/<id>/campaign.json  current lifecycle state (atomic rename)
//	<data>/<id>/flow.journal   the flow's crash-safe journal
//	<data>/<id>/events.jsonl   the campaign's JSONL progress stream
//	<data>/<id>/report.json    the final per-round reports, once done
//
// The flow journal is the resume mechanism: a campaign that was
// "running" when its daemon died is re-enqueued by the next New, and
// core.New recovers the journal, replaying the completed prefix, so the
// resumed campaign's reports are bit-identical to an uninterrupted run
// (the invariant internal/core's TestInvarianceMatrix sweeps).
//
// Scheduling is weighted fair-share rather than FIFO: every Spec
// carries a tenant, Config.TenantWeights assigns per-tenant weights,
// and the dispatcher stride-schedules backlogged tenants so campaign
// starts track the weights whenever the service is saturated.
package service

import (
	"context"
	"errors"
	"fmt"
	"io/fs"
	"log/slog"
	"os"
	"path/filepath"
	"runtime"
	"sort"
	"strconv"
	"strings"
	"sync"
	"time"

	"repro/internal/atomicfile"
	"repro/internal/core"
	"repro/internal/duv"
	"repro/internal/farm"
	"repro/internal/knowledge"
	"repro/internal/lease"
	"repro/internal/obs"
	"repro/internal/opt"
	"repro/internal/sim"
)

// Campaign lifecycle states. queued and running are live; done, failed
// and canceled are terminal.
const (
	StateQueued   = "queued"
	StateRunning  = "running"
	StateDone     = "done"
	StateFailed   = "failed"
	StateCanceled = "canceled"
)

func isTerminal(state string) bool {
	return state == StateDone || state == StateFailed || state == StateCanceled
}

// ErrQueueFull rejects a submission when the admission queue is at
// capacity; the HTTP layer maps it to 429 with a Retry-After hint of
// retryAfterSeconds.
var ErrQueueFull = errors.New("service: campaign queue full")

// retryAfterSeconds is the Retry-After header, in whole seconds, of a
// 429 that rejects a submission with ErrQueueFull.
const retryAfterSeconds = "15"

// ErrClosed rejects submissions after Close began draining.
var ErrClosed = errors.New("service: draining")

// Config configures a Service. The zero value of every optional field
// selects the documented default.
type Config struct {
	// DataDir is the root of the campaign store (required). Each
	// campaign gets its own subdirectory. The service holds the root's
	// lock from New to Close; New fails while another process holds it.
	DataDir string

	// TenantWeights assigns fair-share weights (default: every tenant
	// weighs 1). Only ratios matter: {"paid": 3, "free": 1} gives the
	// paid tenant 3 of every 4 campaign starts under saturation. New
	// refuses a weight that, or whose reciprocal, is not finite and
	// positive.
	TenantWeights map[string]float64

	// MaxRunning bounds concurrently running campaigns (default 1 —
	// campaigns are multi-phase simulation runs that each saturate the
	// worker pool).
	MaxRunning int

	// MaxQueue bounds campaigns waiting behind the running ones
	// (default 16). Submissions beyond it fail with ErrQueueFull.
	MaxQueue int

	// Workers sizes each campaign flow's simulation pool (<= 0:
	// GOMAXPROCS). A campaign spec may override it.
	Workers int

	// Farm, when non-nil, runs every campaign flow's chunks on the
	// simulation farm (a throughput knob: reports are bit-identical
	// with or without it). The dispatcher then starts at most
	// min(MaxRunning, Farm.LiveConns()) campaigns, so a fleet outage
	// pauses campaign starts instead of piling them onto local
	// fallback, and GET /v1/scheduler serves Farm.Health().
	Farm *farm.Dispatcher

	// Rec instruments the service (service.* metrics — several carry a
	// tenant label — and campaign spans) and is shared as the
	// Metrics/Trace sink of every campaign flow. Each campaign
	// additionally gets a private Progress sink writing its
	// events.jsonl.
	Rec *obs.Recorder

	// Log receives structured lifecycle events (submit, start, end,
	// resume, drain), every record carrying the campaign id as a
	// correlated field. nil discards.
	Log *slog.Logger

	// flowArmed, when non-nil, observes every campaign flow right after
	// construction and before the run starts — the test seam used to
	// interrupt campaigns at exact journal positions.
	flowArmed func(id string, f *core.Flow)

	// frozen pins the dispatcher's capacity at 0 — the test seam that
	// keeps submitted campaigns queued for inspection.
	frozen bool
}

func (c Config) withDefaults() Config {
	if c.MaxRunning <= 0 {
		c.MaxRunning = 1
	}
	if c.MaxQueue <= 0 {
		c.MaxQueue = 16
	}
	return c
}

// campaign is one submitted campaign: its persisted state plus the
// in-process handles needed to run and cancel it.
type campaign struct {
	dir string

	mu             sync.Mutex
	st             State
	cancel         context.CancelFunc // non-nil while it runs
	canceledByUser bool
	done           chan struct{} // closed when the campaign leaves the live states
}

// load is the one reader of the campaign's campaign.json.
func (c *campaign) load() (*State, error) {
	return loadState(c.dir)
}

// write stores v as the JSON file name in the campaign's directory.
func (c *campaign) write(name string, v any) error {
	return atomicfile.WriteJSON(filepath.Join(c.dir, name), v)
}

// finishLocked closes the campaign's done channel (idempotently).
// Caller holds c.mu.
func (c *campaign) finishLocked() {
	select {
	case <-c.done:
	default:
		close(c.done)
	}
}

// Service runs campaigns. Create with New, stop with Close.
type Service struct {
	cfg  Config
	rec  *obs.Recorder
	log  *slog.Logger
	lock *lease.Handle // the data root's lock, held until Close
	know *knowledge.Store

	// corpora holds the corpora this process's campaigns built, so a
	// campaign with the same (unit, seed, corpus budget) replays one
	// instead of simulating it.
	corpora *sim.CorpusCache

	// units holds one unit per name, built on first use (unit) and
	// shared by admission and every campaign: a duv.DUV is read-only
	// once constructed.
	unitsMu sync.Mutex
	units   map[string]duv.DUV

	baseCtx    context.Context
	baseCancel context.CancelFunc

	mu        sync.Mutex
	cond      *sync.Cond
	campaigns map[string]*campaign
	sched     *fairSched
	nextID    int
	closed    bool

	wg sync.WaitGroup // dispatcher, farm watch and running campaigns
}

// rootLock names the data root's lock file, and knowledgeOwner the
// service's journal in the knowledge store.
const (
	rootLock       = "lock"
	knowledgeOwner = "service"
)

// farmTick is how often a service with a farm re-reads
// Farm.LiveConns(): a fleet that gains connections frees capacity that
// no campaign event signals.
const farmTick = 5 * time.Second

// New takes the lock of cfg.DataDir (creating the root if need be),
// recovers the campaigns it holds — resumed ones first, then queued
// ones, each in submission order — and starts the dispatcher. It fails
// if another process holds the root.
func New(cfg Config) (*Service, error) {
	cfg = cfg.withDefaults()
	if cfg.DataDir == "" {
		return nil, errors.New("service: Config.DataDir is required")
	}
	for tenant, w := range cfg.TenantWeights {
		if err := checkWeight(tenant, w); err != nil {
			return nil, fmt.Errorf("service: Config.TenantWeights: %w", err)
		}
	}
	if err := os.MkdirAll(cfg.DataDir, 0o755); err != nil {
		return nil, err
	}
	lock, err := lockRoot(cfg.DataDir)
	if err != nil {
		return nil, fmt.Errorf("service: data root %s: %w", cfg.DataDir, err)
	}
	know, err := knowledge.Open(filepath.Join(cfg.DataDir, "knowledge"), knowledgeOwner, cfg.Rec, cfg.Log)
	if err != nil {
		lock.Release()
		return nil, fmt.Errorf("service: %w", err)
	}
	ctx, cancel := context.WithCancel(context.Background())
	s := &Service{
		cfg:        cfg,
		rec:        cfg.Rec,
		log:        obs.OrNop(cfg.Log),
		lock:       lock,
		know:       know,
		corpora:    sim.NewCorpusCache(),
		units:      map[string]duv.DUV{},
		baseCtx:    ctx,
		baseCancel: cancel,
		campaigns:  map[string]*campaign{},
		sched:      newFairSched(cfg.TenantWeights),
		nextID:     1,
	}
	s.cond = sync.NewCond(&s.mu)
	if err := s.recoverRoot(); err != nil {
		cancel()
		know.Close()
		lock.Release()
		return nil, err
	}
	s.wg.Add(1)
	go s.dispatch()
	if cfg.Farm != nil {
		s.wg.Add(1)
		go s.watchFarm()
	}
	return s, nil
}

// lockRoot takes the data root's lock in the name of this process.
func lockRoot(dir string) (*lease.Handle, error) {
	host, err := os.Hostname()
	if err != nil || host == "" {
		host = "cdgd"
	}
	m, err := lease.NewManager(lease.Options{Owner: fmt.Sprintf("%s-%d", host, os.Getpid())})
	if err != nil {
		return nil, err
	}
	return m.Acquire(dir, rootLock)
}

// recoverRoot registers every campaign of the data root and enqueues the
// live ones. Enqueue order is deterministic: previously-running
// campaigns first (their journals resume), then queued ones, each
// sorted by original submission time (ties by id) — directory-walk
// order never matters.
func (s *Service) recoverRoot() error {
	entries, err := os.ReadDir(s.cfg.DataDir)
	if err != nil {
		return err
	}
	var live []string
	for _, e := range entries {
		// Campaign directories are the allocator's c<number> names; the
		// knowledge base (and any foreign directory) is not one.
		id, n := e.Name(), idNumber(e.Name())
		if !e.IsDir() || n == 0 {
			continue
		}
		c := &campaign{dir: filepath.Join(s.cfg.DataDir, id), done: make(chan struct{})}
		st, err := c.load()
		if errors.Is(err, fs.ErrNotExist) {
			// A daemon killed between making the directory and renaming
			// the state in never acknowledged the submission.
			continue
		}
		if err != nil {
			return fmt.Errorf("service: recovering %s: %w", id, err)
		}
		c.st = *st
		s.campaigns[id] = c
		s.nextID = max(s.nextID, n+1)
		if isTerminal(st.State) {
			c.finishLocked()
			continue
		}
		if err := refuseLiveLease(c.dir); err != nil {
			return fmt.Errorf("service: recovering %s: %w", id, err)
		}
		live = append(live, id)
	}
	sort.Slice(live, func(i, j int) bool {
		a, b := s.campaigns[live[i]].st, s.campaigns[live[j]].st
		if (a.State == StateRunning) != (b.State == StateRunning) {
			return a.State == StateRunning
		}
		if !a.SubmittedAt.Equal(b.SubmittedAt) {
			return a.SubmittedAt.Before(b.SubmittedAt)
		}
		return live[i] < live[j]
	})
	for _, id := range live {
		c := s.campaigns[id]
		if c.st.State == StateRunning {
			s.counter("service.resumed").Inc()
			s.log.Info("service: campaign re-enqueued for resume", "campaign", id)
		}
		c.st.State = StateQueued // in memory; the disk keeps "running" until it starts
		s.sched.push(c.st.Spec.tenant(), id)
	}
	if len(live) > 0 {
		s.updateGaugesLocked()
		s.log.Info("service: recovery complete", "enqueued", len(live))
	}
	return nil
}

// refuseLiveLease keeps an upgrade from running a campaign twice. A
// daemon of an older version shared data roots through a per-campaign
// lease.json; while one of those is unreleased and unexpired, that
// daemon may still be running the campaign, so the root is refused,
// naming it.
func refuseLiveLease(dir string) error {
	var l struct {
		Owner     string    `json:"owner"`
		RenewedAt time.Time `json:"renewed_at"`
		TTLMillis int64     `json:"ttl_ms"`
		Released  bool      `json:"released"`
	}
	switch err := atomicfile.ReadJSON(filepath.Join(dir, "lease.json"), &l); {
	case errors.Is(err, fs.ErrNotExist):
		return nil
	case err != nil:
		return err
	}
	if expires := l.RenewedAt.Add(time.Duration(l.TTLMillis) * time.Millisecond); !l.Released && time.Now().Before(expires) {
		return fmt.Errorf("leased by %s until %s: stop that daemon first", l.Owner, expires.Format(time.RFC3339))
	}
	return nil
}

// watchFarm wakes the dispatcher every farmTick, so campaign starts
// follow the farm's live connections.
func (s *Service) watchFarm() {
	defer s.wg.Done()
	t := time.NewTicker(farmTick)
	defer t.Stop()
	for {
		select {
		case <-s.baseCtx.Done():
			return
		case <-t.C:
		}
		s.mu.Lock()
		s.updateGaugesLocked()
		s.cond.Broadcast()
		s.mu.Unlock()
	}
}

// capacityLocked is the dispatcher's effective concurrency bound:
// MaxRunning clamped by the farm's live connections (when configured).
// Caller holds s.mu.
func (s *Service) capacityLocked() int {
	switch {
	case s.cfg.frozen:
		return 0
	case s.cfg.Farm != nil:
		return min(s.cfg.MaxRunning, s.cfg.Farm.LiveConns())
	}
	return s.cfg.MaxRunning
}

// updateGaugesLocked refreshes every queue-shaped gauge: the queued and
// running campaigns per tenant, the capacity clamp, and the autoscaling
// hint (how many simulation workers the current backlog wants). Caller
// holds s.mu.
func (s *Service) updateGaugesLocked() {
	s.gauge("service.capacity").Set(int64(s.capacityLocked()))
	s.gauge("service.desired_workers").Set(int64(s.desiredWorkersLocked()))
	for tenant, n := range s.sched.queuedByTenant() {
		s.gauge("service.queued", "tenant", tenant).Set(int64(n))
	}
	for tenant, n := range s.sched.running {
		s.gauge("service.running", "tenant", tenant).Set(int64(n))
	}
}

// desiredWorkersLocked is the autoscaling hint: enough simulation
// workers to feed every running and queued campaign at its configured
// pool size. Exported as the service.desired_workers gauge and by
// GET /v1/scheduler. Caller holds s.mu.
func (s *Service) desiredWorkersLocked() int {
	per := s.cfg.Workers
	if per <= 0 {
		per = runtime.GOMAXPROCS(0)
	}
	return (s.sched.busy + s.sched.len()) * per
}

// Ready is the daemon's readiness check for /readyz. It fails once
// Close began draining, when the admission queue is saturated (new
// submissions would be rejected with 429 anyway), and when the data
// root is no longer writable (submissions would fail).
func (s *Service) Ready() error {
	s.mu.Lock()
	closed, queued := s.closed, s.sched.len()
	s.mu.Unlock()
	if closed {
		return ErrClosed
	}
	if queued >= s.cfg.MaxQueue {
		return fmt.Errorf("%w (capacity %d)", ErrQueueFull, s.cfg.MaxQueue)
	}
	probe, err := os.CreateTemp(s.cfg.DataDir, ".readyz-*")
	if err != nil {
		return fmt.Errorf("service: data root not writable: %w", err)
	}
	probe.Close()
	os.Remove(probe.Name())
	return nil
}

// Submit validates and enqueues a campaign, returning its id. The
// submission is durable before Submit returns: a daemon restart
// re-enqueues it. Campaign ids are allocated with an O_EXCL directory
// create, which steps past the directory of a submission a killed
// daemon never acknowledged.
func (s *Service) Submit(spec Spec) (string, error) {
	if err := spec.validate(s.unit); err != nil {
		return "", err
	}
	tenant := spec.tenant()
	s.mu.Lock()
	if s.closed {
		s.mu.Unlock()
		return "", ErrClosed
	}
	if s.sched.len() >= s.cfg.MaxQueue {
		s.mu.Unlock()
		s.counter("service.rejected", "engine", spec.engineName(), "tenant", tenant).Inc()
		return "", fmt.Errorf("%w (capacity %d)", ErrQueueFull, s.cfg.MaxQueue)
	}
	var id, dir string
	for {
		id = campaignID(s.nextID)
		s.nextID++
		dir = filepath.Join(s.cfg.DataDir, id)
		err := os.Mkdir(dir, 0o755)
		if err == nil {
			break
		}
		if !os.IsExist(err) {
			s.mu.Unlock()
			return "", err
		}
	}
	c := &campaign{
		dir: dir,
		st: State{
			ID:          id,
			Spec:        spec,
			State:       StateQueued,
			SubmittedAt: time.Now().UTC(),
		},
		done: make(chan struct{}),
	}
	if err := c.write(stateFile, c.st.slim()); err != nil {
		s.mu.Unlock()
		return "", err
	}
	s.campaigns[id] = c
	s.sched.push(tenant, id)
	s.counter("service.submitted", "engine", spec.engineName(), "tenant", tenant).Inc()
	s.updateGaugesLocked()
	s.cond.Signal()
	s.mu.Unlock()
	s.rec.Emit("campaign_submitted", map[string]any{"id": id, "unit": spec.Unit, "tenant": tenant})
	s.log.Info("service: campaign submitted", "campaign", id, "unit", spec.Unit, "tenant", tenant)
	return id, nil
}

// Get returns a snapshot of the campaign's state (reports included once
// done), or nil if the id is unknown.
func (s *Service) Get(id string) *State {
	s.mu.Lock()
	c := s.campaigns[id]
	s.mu.Unlock()
	if c == nil {
		return nil
	}
	c.mu.Lock()
	st := c.st.clone()
	c.mu.Unlock()
	if st.State == StateDone && st.Reports == nil {
		// Terminal reports live on disk, not in memory: load on demand so
		// a restarted daemon serves old campaigns without caching them.
		if reports, err := loadReports(c.dir); err == nil {
			st.Reports = reports
		}
	}
	return st
}

// List returns every campaign's state snapshot (without reports),
// sorted by id.
func (s *Service) List() []*State {
	s.mu.Lock()
	cs := make([]*campaign, 0, len(s.campaigns))
	for _, c := range s.campaigns {
		cs = append(cs, c)
	}
	s.mu.Unlock()
	out := make([]*State, 0, len(cs))
	for _, c := range cs {
		c.mu.Lock()
		out = append(out, c.st.clone())
		c.mu.Unlock()
	}
	sort.Slice(out, func(i, j int) bool { return out[i].ID < out[j].ID })
	return out
}

// Scheduler returns the fair-share scheduler's live snapshot: capacity
// clamps, the autoscaling hint, and per-tenant weights/queue
// depths/virtual times.
func (s *Service) Scheduler() SchedulerInfo {
	s.mu.Lock()
	defer s.mu.Unlock()
	info := SchedulerInfo{
		MaxRunning:     s.cfg.MaxRunning,
		Capacity:       s.capacityLocked(),
		Running:        s.sched.busy,
		Queued:         s.sched.len(),
		DesiredWorkers: s.desiredWorkersLocked(),
		Tenants:        s.sched.stats(),
	}
	if s.cfg.Farm != nil {
		info.Farm = s.cfg.Farm.Health()
	}
	return info
}

// SchedulerInfo is GET /v1/scheduler's response body.
type SchedulerInfo struct {
	MaxRunning     int          `json:"max_running"`
	Capacity       int          `json:"capacity"`
	Running        int          `json:"running"`
	Queued         int          `json:"queued"`
	DesiredWorkers int          `json:"desired_workers"`
	Tenants        []TenantStat `json:"tenants"`
	// Farm is the per-worker health/quarantine state of the farm fleet
	// (omitted when the service runs without a farm dispatcher).
	Farm []farm.WorkerHealth `json:"farm,omitempty"`
}

// Cancel stops a campaign: a queued one is withdrawn and a running one
// is interrupted (its journal keeps the completed prefix). Terminal
// campaigns are left untouched, and so is every campaign once Close
// began: the root is about to pass to the next daemon. Returns the
// post-cancel state, or nil for an unknown id.
func (s *Service) Cancel(id string) *State {
	s.mu.Lock()
	defer s.mu.Unlock()
	c := s.campaigns[id]
	if c == nil {
		return nil
	}
	c.mu.Lock()
	defer c.mu.Unlock()
	switch {
	case s.closed:
	case s.sched.remove(id):
		s.updateGaugesLocked()
		s.finish(c, StateCanceled, nil)
	case c.cancel != nil:
		c.canceledByUser = true
		c.cancel()
	}
	return c.st.clone()
}

// Wait blocks until the campaign reaches a terminal state, the context
// is done, or the id is unknown (returns immediately).
func (s *Service) Wait(ctx context.Context, id string) {
	s.mu.Lock()
	c := s.campaigns[id]
	s.mu.Unlock()
	if c == nil {
		return
	}
	select {
	case <-c.done:
	case <-ctx.Done():
	}
}

// EventsPath returns the campaign's JSONL progress file path (the file
// appears when the campaign starts running), or "" for an unknown id.
func (s *Service) EventsPath(id string) string {
	s.mu.Lock()
	c := s.campaigns[id]
	s.mu.Unlock()
	if c == nil {
		return ""
	}
	return filepath.Join(c.dir, "events.jsonl")
}

// Done reports whether the campaign has reached a terminal state (also
// true for unknown ids, so event streams terminate).
func (s *Service) Done(id string) bool {
	s.mu.Lock()
	c := s.campaigns[id]
	s.mu.Unlock()
	if c == nil {
		return true
	}
	select {
	case <-c.done:
		return true
	default:
		return false
	}
}

// Close drains the service: no new submissions, running campaigns are
// interrupted (their journals checkpoint the completed prefix and their
// state stays "running" on disk, so the next daemon resumes them),
// queued campaigns stay queued, and the data root's lock is released.
// Blocks until every campaign goroutine has exited.
func (s *Service) Close() {
	s.mu.Lock()
	if s.closed {
		s.mu.Unlock()
		s.wg.Wait()
		return
	}
	s.closed = true
	s.cond.Broadcast()
	s.mu.Unlock()
	s.log.Info("service: draining")
	s.baseCancel()
	s.wg.Wait()
	s.know.Close()
	s.lock.Release()
	s.log.Info("service: drained")
}

// dispatch pops campaigns in weighted fair-share order whenever a
// running slot is free within the capacity clamp and starts each one's
// runner. A popped campaign gets its cancel function before s.mu is
// released, so Cancel always finds it queued or running.
func (s *Service) dispatch() {
	defer s.wg.Done()
	for {
		s.mu.Lock()
		for !s.closed && (s.sched.len() == 0 || s.sched.busy >= s.capacityLocked()) {
			s.cond.Wait()
		}
		if s.closed {
			s.mu.Unlock()
			return
		}
		id, tenant, _ := s.sched.pop()
		c := s.campaigns[id]
		ctx, cancel := context.WithCancel(s.baseCtx)
		c.mu.Lock()
		c.cancel = cancel
		c.mu.Unlock()
		s.updateGaugesLocked()
		s.wg.Add(1)
		s.mu.Unlock()
		go s.runCampaign(c, tenant, ctx, cancel)
	}
}

// release gives tenant's running slot back — counting a completion
// when done — and wakes the dispatcher.
func (s *Service) release(tenant string, done bool) {
	s.mu.Lock()
	s.sched.release(tenant, done)
	s.updateGaugesLocked()
	s.cond.Signal()
	s.mu.Unlock()
}

// runCampaign executes one campaign to a terminal state, or to a drain
// that leaves it "running" on disk for the next daemon to resume.
func (s *Service) runCampaign(c *campaign, tenant string, ctx context.Context, cancel context.CancelFunc) {
	defer s.wg.Done()
	defer cancel()
	c.mu.Lock()
	id := c.st.ID
	c.st.State = StateRunning
	c.st.StartedAt = now()
	if err := c.write(stateFile, c.st.slim()); err != nil {
		s.log.Warn("service: writing campaign state failed", "campaign", id, "err", err)
	}
	c.mu.Unlock()
	span := s.rec.Span("campaign", id)
	s.rec.Emit("campaign_start", map[string]any{"id": id, "unit": c.st.Spec.Unit, "tenant": tenant})
	s.log.Info("service: campaign started", "campaign", id, "unit", c.st.Spec.Unit, "tenant", tenant)

	reports, err := s.executeFlow(c, ctx)

	c.mu.Lock()
	c.cancel = nil
	interrupted := errors.Is(err, core.ErrInterrupted)
	var state string
	switch {
	case err == nil:
		if err = c.write(reportFile, reports); err != nil {
			state = s.finish(c, StateFailed, err)
			break
		}
		s.feedKnowledge(id, c.st.Spec, reports)
		c.st.Reports = reports
		state = s.finish(c, StateDone, nil)
	case interrupted && c.canceledByUser:
		state = s.finish(c, StateCanceled, nil)
	case interrupted:
		// Daemon drain: the journal holds the completed prefix and the
		// on-disk state stays "running" for the next daemon. The
		// in-memory campaign is finished for this process's lifetime.
		c.finishLocked()
		state = c.st.State
	default:
		state = s.finish(c, StateFailed, err)
	}
	c.mu.Unlock()

	s.rec.Emit("campaign_end", map[string]any{"id": id, "state": state})
	if err != nil && state == StateFailed {
		s.log.Warn("service: campaign failed", "campaign", id, "err", err)
	} else {
		s.log.Info("service: campaign ended", "campaign", id, "state", state)
	}
	span.End()
	s.release(tenant, state == StateDone)
}

// finish moves a campaign to the terminal state (with err's message
// when it failed): it writes campaign.json, counts the campaign, closes
// its waiters and returns the state. Caller holds c.mu.
func (s *Service) finish(c *campaign, state string, err error) string {
	c.st.State = state
	c.st.FinishedAt = now()
	if err != nil {
		c.st.Error = err.Error()
	}
	if werr := c.write(stateFile, c.st.slim()); werr != nil {
		s.log.Warn("service: writing campaign state failed", "campaign", c.st.ID, "err", werr)
	}
	c.finishLocked()
	s.countTerminal(&c.st)
	return state
}

// terminalCounters names the counter of each terminal state.
var terminalCounters = map[string]string{
	StateDone:     "service.completed",
	StateFailed:   "service.failed",
	StateCanceled: "service.canceled",
}

// countTerminal counts a campaign that reached a terminal state in its
// engine's and tenant's series.
func (s *Service) countTerminal(st *State) {
	s.counter(terminalCounters[st.State], "engine", st.Spec.engineName(), "tenant", st.Spec.tenant()).Inc()
}

// executeFlow builds the campaign's journaled flow and runs the
// requested target, returning the per-round reports.
func (s *Service) executeFlow(c *campaign, ctx context.Context) ([]*ReportJSON, error) {
	spec := c.st.Spec
	unit, err := s.unit(spec.Unit)
	if err != nil {
		return nil, err
	}
	events, err := os.OpenFile(filepath.Join(c.dir, "events.jsonl"),
		os.O_CREATE|os.O_WRONLY|os.O_APPEND, 0o644)
	if err != nil {
		return nil, err
	}
	defer events.Close()

	// Per-campaign recorder: metrics and trace aggregate into the
	// service's sinks, progress streams into the campaign's own file,
	// and Campaign stamps the id onto every chunk span and outbound
	// farm frame so fleet-wide traces correlate back to this campaign.
	rec := &obs.Recorder{Progress: obs.NewProgress(events), Campaign: c.st.ID}
	if s.rec != nil {
		rec.Metrics = s.rec.Metrics
		rec.Trace = s.rec.Trace
	}

	cfg := spec.coreConfig(s.cfg.Workers)
	if spec.useKnowledge() {
		kp, err := s.campaignKnowledge(c)
		if err != nil {
			return nil, err
		}
		cfg.Prior = kp.Prior
		cfg.TACPrior = kp.TAC
	}
	cfg.Obs = rec
	cfg.Log = s.log.With("campaign", c.st.ID)
	if d := s.cfg.Farm; d != nil { // a nil *Dispatcher must not become a non-nil Runner
		cfg.Runner, cfg.RunnerLanes = d, d.Lanes()
	}
	cfg.CorpusCache = s.corpora
	cfg.Journal = filepath.Join(c.dir, "flow.journal")
	flow, err := core.New(unit, cfg)
	if err != nil {
		return nil, err
	}
	defer flow.Close()
	if s.cfg.flowArmed != nil {
		s.cfg.flowArmed(c.st.ID, flow)
	}

	reports, err := flow.Run(ctx, spec.target())
	if err != nil {
		return nil, err
	}
	out := make([]*ReportJSON, len(reports))
	for i, r := range reports {
		out[i] = NewReportJSON(r, unit.Model())
	}
	return out, nil
}

// unit returns the service's one unit of the given name, building it
// on first use. Only a unit that was built is kept.
func (s *Service) unit(name string) (duv.DUV, error) {
	s.unitsMu.Lock()
	defer s.unitsMu.Unlock()
	if u, ok := s.units[name]; ok {
		return u, nil
	}
	u, err := duv.New(name)
	if err != nil {
		return nil, err
	}
	s.units[name] = u
	return u, nil
}

// counter and gauge return the service series name labeled by the
// pairs kv, or unlabeled without them. Each family has one label set: a
// campaign counter (service.submitted, .rejected and the terminal
// counters) is labeled by engine and tenant, the queue gauges by tenant,
// and a series no tenant owns by nothing, so summing a family counts
// each fact once. Tenant names are validated at submission and engine
// names come from the registry, so label cardinality is caller-bounded.
func (s *Service) counter(name string, kv ...string) *obs.Counter {
	if s.rec == nil {
		return nil
	}
	return s.rec.Metrics.CounterWith(name, obs.Labels(kv...))
}

func (s *Service) gauge(name string, kv ...string) *obs.Gauge {
	if s.rec == nil {
		return nil
	}
	return s.rec.Metrics.GaugeWith(name, obs.Labels(kv...))
}

// Knowledge returns the merged knowledge base (the GET /v1/knowledge
// body).
func (s *Service) Knowledge() ([]knowledge.Entry, error) { return s.know.All() }

// maxPriorPoints bounds how many past harvests seed a warm campaign's
// engine — the best-scoring ones win.
const maxPriorPoints = 32

// knowledgeSnapshot freezes the priors a campaign consumed at first
// start. Priors are result-relevant (journal-hashed), so a resumed
// campaign must read byte-identical ones even after the knowledge base
// has grown — hence the per-campaign file, not a live query.
type knowledgeSnapshot struct {
	Prior []opt.PriorPoint   `json:"prior,omitempty"`
	TAC   map[string]float64 `json:"tac,omitempty"`
}

// campaignKnowledge loads the campaign's frozen knowledge snapshot, or
// computes it from the store on first start and persists it.
func (s *Service) campaignKnowledge(c *campaign) (*knowledgeSnapshot, error) {
	var frozen knowledgeSnapshot
	switch err := atomicfile.ReadJSON(filepath.Join(c.dir, knowledgeFile), &frozen); {
	case err == nil:
		return &frozen, nil
	case !errors.Is(err, fs.ErrNotExist):
		return nil, fmt.Errorf("service: %w", err)
	}
	entries, err := s.know.All()
	if err != nil {
		return nil, err
	}
	unit := c.st.Spec.Unit
	kp := &knowledgeSnapshot{
		Prior: knowledge.Priors(entries, unit, maxPriorPoints),
		TAC:   knowledge.TACBoosts(entries, unit, knowledge.DefaultDamp),
	}
	if err := c.write(knowledgeFile, kp); err != nil {
		return nil, err
	}
	return kp, nil
}

// feedKnowledge appends the campaign's harvests to the knowledge base.
// (campaign, round) keying deduplicates a feed replayed after a crash.
func (s *Service) feedKnowledge(id string, spec Spec, reports []*ReportJSON) {
	entries := knowledgeEntries(id, spec, reports)
	if len(entries) == 0 {
		return
	}
	if err := s.know.Add(entries); err != nil {
		s.log.Warn("service: knowledge feed failed", "campaign", id, "err", err)
		return
	}
	s.log.Debug("service: knowledge fed", "campaign", id, "entries", len(entries))
}

// knowledgeEntries projects finished reports into knowledge entries:
// one per round, scored by the harvest's standalone evaluation (the
// "best" phase) as mean per-target-event hits per simulation.
func knowledgeEntries(id string, spec Spec, reports []*ReportJSON) []knowledge.Entry {
	var entries []knowledge.Entry
	for round, r := range reports {
		var best *PhaseJSON
		for i := range r.Phases {
			if r.Phases[i].Name == "best" {
				best = &r.Phases[i]
			}
		}
		if best == nil || best.Sims == 0 || len(best.TargetHits) == 0 || len(r.BestWeights) == 0 {
			continue
		}
		var hits uint64
		for _, n := range best.TargetHits {
			hits += n
		}
		sources := make([]string, 0, len(r.ChosenTemplates))
		for _, ts := range r.ChosenTemplates {
			sources = append(sources, ts.Name)
		}
		entries = append(entries, knowledge.Entry{
			Campaign: id,
			Round:    round,
			Unit:     spec.Unit,
			Target:   spec.target().String(),
			Template: fmt.Sprintf("%s_r%d_best", id, round),
			Weights:  r.BestWeights,
			Score:    float64(hits) / (float64(best.Sims) * float64(len(best.TargetHits))),
			Sims:     best.Sims,
			Sources:  sources,
		})
	}
	return entries
}

func now() *time.Time {
	t := time.Now().UTC()
	return &t
}

// campaignID is the allocator's name for campaign n: "c" and n in at
// least six digits.
func campaignID(n int) string { return fmt.Sprintf("c%06d", n) }

// idNumber parses the number of a campaign id in the allocator's form
// ("c000042" → 42). Every other name yields 0, so recovery neither runs
// it nor advances the allocator past it: the knowledge base, and a copy
// of a campaign directory ("c000001.bak"), which would otherwise run as
// a second campaign under the ID its state file names.
func idNumber(id string) int {
	digits, ok := strings.CutPrefix(id, "c")
	n, err := strconv.Atoi(digits)
	if !ok || err != nil || n <= 0 || campaignID(n) != id {
		return 0
	}
	return n
}

// The JSON files of a campaign directory.
const (
	stateFile     = "campaign.json"
	reportFile    = "report.json"
	knowledgeFile = "knowledge.json"
)

func loadState(dir string) (*State, error) {
	var st State
	if err := atomicfile.ReadJSON(filepath.Join(dir, stateFile), &st); err != nil {
		return nil, err
	}
	return &st, nil
}

func loadReports(dir string) ([]*ReportJSON, error) {
	var reports []*ReportJSON
	err := atomicfile.ReadJSON(filepath.Join(dir, reportFile), &reports)
	return reports, err
}
