// Package service is the campaign layer of the AS-CDG system: a
// long-running daemon core that accepts CDG campaigns, runs them with
// bounded concurrency, and persists everything so a daemon restart —
// or a *peer replica* sharing the same data root — picks up exactly
// where a dead process left off (DESIGN.md §11, §12).
//
// Every campaign owns a directory under Config.DataDir:
//
//	<data>/<id>/campaign.json  current lifecycle state (atomic rename)
//	<data>/<id>/flow.journal   the flow's crash-safe journal
//	<data>/<id>/events.jsonl   the campaign's JSONL progress stream
//	<data>/<id>/report.json    the final per-round reports, once done
//	<data>/<id>/lease.json     ownership lease (internal/lease)
//
// The flow journal is the resume mechanism: a campaign that was
// "running" when its owner died is adopted by whichever replica's
// janitor first claims the expired lease, and core.New recovers the
// journal, replaying the completed prefix, so the adopted campaign's
// reports are bit-identical to an uninterrupted run (the invariant
// internal/core's TestInvarianceMatrix sweeps and cmd/cdgload drives at
// fleet scale).
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
	"sync"
	"time"

	"repro/internal/atomicfile"
	"repro/internal/core"
	"repro/internal/duv"
	"repro/internal/failpoint"
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
// capacity; the HTTP layer maps it to 429 with a Retry-After hint.
var ErrQueueFull = errors.New("service: campaign queue full")

// ErrClosed rejects submissions after Close began draining.
var ErrClosed = errors.New("service: draining")

// Config configures a Service. The zero value of every optional field
// selects the documented default.
type Config struct {
	// DataDir is the root of the campaign store (required). Each
	// campaign gets its own subdirectory. Multiple replicas may share
	// one data root: campaign ownership is arbitrated by leases.
	DataDir string

	// Owner is this replica's identity in lease records (default
	// "<hostname>-<pid>"). Must be unique among live replicas sharing
	// the data root.
	Owner string

	// LeaseTTL is how long a campaign lease protects its owner without
	// renewal (default 10s). Shorter TTLs adopt dead replicas' campaigns
	// faster at the cost of more lease I/O; it also paces the janitor's
	// data-root rescans (every TTL/2).
	LeaseTTL time.Duration

	// TenantWeights assigns fair-share weights (default: every tenant
	// weighs 1). Only ratios matter: {"paid": 3, "free": 1} gives the
	// paid tenant 3 of every 4 campaign starts under saturation.
	TenantWeights map[string]float64

	// MaxRunning bounds concurrently running campaigns (default 1 —
	// campaigns are multi-phase simulation runs that each saturate the
	// worker pool).
	MaxRunning int

	// MaxQueue bounds campaigns waiting behind the running ones
	// (default 16). Submissions beyond it fail with ErrQueueFull.
	MaxQueue int

	// RetryAfter is the backoff hint attached to ErrQueueFull
	// rejections (default 15s).
	RetryAfter time.Duration

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
	// tenant label — campaign spans, lease.* metrics) and is shared as
	// the Metrics/Trace sink of every campaign flow. Each campaign
	// additionally gets a private Progress sink writing its
	// events.jsonl.
	Rec *obs.Recorder

	// Log receives structured lifecycle events (submit, start, end,
	// adopt, fence, drain), every record carrying the campaign id as a
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
	if c.Owner == "" {
		host, err := os.Hostname()
		if err != nil || host == "" {
			host = "cdgd"
		}
		c.Owner = fmt.Sprintf("%s-%d", host, os.Getpid())
	}
	if c.LeaseTTL <= 0 {
		c.LeaseTTL = 10 * time.Second
	}
	if c.MaxRunning <= 0 {
		c.MaxRunning = 1
	}
	if c.MaxQueue <= 0 {
		c.MaxQueue = 16
	}
	if c.RetryAfter <= 0 {
		c.RetryAfter = 15 * time.Second
	}
	return c
}

// campaign is one submitted campaign: its persisted state plus the
// in-process handles needed to run and cancel it.
type campaign struct {
	dir string

	mu             sync.Mutex
	st             State
	lease          *lease.Handle      // non-nil while this replica runs it
	cancel         context.CancelFunc // non-nil while this replica runs it
	canceledByUser bool
	done           chan struct{} // closed when the campaign leaves the live states
}

// refresh is the one rule that mirrors the data root into memory:
// campaign.json is the campaign's state unless this replica holds its
// lease, and a terminal state closes the campaign's waiters. It returns
// the state on disk.
func (c *campaign) refresh() (*State, error) {
	st, err := loadState(c.dir)
	if err != nil {
		return nil, err
	}
	c.mu.Lock()
	defer c.mu.Unlock()
	if c.lease == nil {
		c.st = *st
		if isTerminal(st.State) {
			c.finishLocked()
		}
	}
	return st, nil
}

// settled reports whether refresh has nothing to mirror: this replica
// runs the campaign, or it is terminal.
func (c *campaign) settled() bool {
	c.mu.Lock()
	defer c.mu.Unlock()
	return c.lease != nil || isTerminal(c.st.State)
}

// write stores v as the JSON file name in the campaign's directory
// behind h's fence: h.Verify re-reads lease.json first, so a replica
// that lost the lease never writes into the campaign.
func (c *campaign) write(h *lease.Handle, name string, v any) error {
	if err := h.Verify(); err != nil {
		return err
	}
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
	cfg    Config
	owner  string
	rec    *obs.Recorder
	log    *slog.Logger
	leases *lease.Manager
	know   *knowledge.Store

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

	wg sync.WaitGroup // dispatcher + janitor + running campaigns
}

// New opens (or creates) the campaign store at cfg.DataDir, scans it —
// adopting every claimable campaign the previous owner left queued or
// running (resumed campaigns first, in submission order) — and starts
// the dispatcher plus the janitor that keeps adopting peers' orphaned
// campaigns while the service lives.
func New(cfg Config) (*Service, error) {
	cfg = cfg.withDefaults()
	if cfg.DataDir == "" {
		return nil, errors.New("service: Config.DataDir is required")
	}
	if err := os.MkdirAll(cfg.DataDir, 0o755); err != nil {
		return nil, err
	}
	leases, err := lease.NewManager(lease.Options{
		Owner: cfg.Owner, TTL: cfg.LeaseTTL, Rec: cfg.Rec, Log: cfg.Log,
	})
	if err != nil {
		return nil, fmt.Errorf("service: %w", err)
	}
	know, err := knowledge.Open(filepath.Join(cfg.DataDir, "knowledge"), cfg.Owner, cfg.Rec, cfg.Log)
	if err != nil {
		leases.Close()
		return nil, fmt.Errorf("service: %w", err)
	}
	ctx, cancel := context.WithCancel(context.Background())
	s := &Service{
		cfg:        cfg,
		owner:      cfg.Owner,
		rec:        cfg.Rec,
		log:        obs.OrNop(cfg.Log),
		leases:     leases,
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
	if err := s.scan(true); err != nil {
		cancel()
		know.Close()
		leases.Close()
		return nil, err
	}
	s.wg.Add(2)
	go s.dispatch()
	go s.janitor()
	return s, nil
}

// Owner returns this replica's lease identity.
func (s *Service) Owner() string { return s.owner }

// scan walks the data root and reconciles it with memory: new
// directories (peer submissions) are registered, every campaign this
// replica neither queues nor runs is refreshed from disk, and live
// campaigns whose lease is claimable — never leased, released by a
// draining owner, or expired under a dead one — are (re-)enqueued for
// this replica to run.
//
// Enqueue order is deterministic: previously-running campaigns first
// (their journals resume), then queued ones, each sorted by original
// submission time (ties by id) — directory-walk order never matters.
// initial is the startup pass, where a scan failure is fatal.
func (s *Service) scan(initial bool) error {
	entries, err := os.ReadDir(s.cfg.DataDir)
	if err != nil {
		return err
	}
	type candidate struct {
		id string
		st *State
	}
	var adopt []candidate
	for _, e := range entries {
		// Campaign directories are the allocator's c<number> names; the
		// shared knowledge base (and any foreign directory) is not one.
		if !e.IsDir() || idNumber(e.Name()) == 0 {
			continue
		}
		id := e.Name()
		s.mu.Lock()
		c := s.campaigns[id]
		inSched := s.sched.contains(id)
		s.mu.Unlock()
		if c == nil {
			c = &campaign{dir: filepath.Join(s.cfg.DataDir, id), done: make(chan struct{})}
		} else if inSched || c.settled() {
			continue // locally active or already settled
		}

		st, err := c.refresh()
		if err != nil {
			if initial && !errors.Is(err, fs.ErrNotExist) {
				return fmt.Errorf("service: recovering %s: %w", id, err)
			}
			// No state file: a peer is mid-submission (directory made,
			// state not yet renamed in), or a replica died between the two
			// and never acknowledged the submission. Skip it; the next pass
			// catches the former.
			continue
		}
		s.mu.Lock()
		if n := idNumber(id); n >= s.nextID {
			s.nextID = n + 1
		}
		if s.campaigns[id] == nil {
			s.campaigns[id] = c
		}
		s.mu.Unlock()
		if isTerminal(st.State) {
			continue
		}

		rec, err := lease.Peek(c.dir)
		if err != nil {
			if initial {
				return fmt.Errorf("service: recovering %s: %w", id, err)
			}
			continue
		}
		if s.leases.Claimable(rec) {
			adopt = append(adopt, candidate{id: id, st: st})
		}
	}

	// Deterministic enqueue order: resumed first, then queued, each by
	// (submission time, id).
	sort.Slice(adopt, func(i, j int) bool {
		a, b := adopt[i], adopt[j]
		if (a.st.State == StateRunning) != (b.st.State == StateRunning) {
			return a.st.State == StateRunning
		}
		if !a.st.SubmittedAt.Equal(b.st.SubmittedAt) {
			return a.st.SubmittedAt.Before(b.st.SubmittedAt)
		}
		return a.id < b.id
	})

	s.mu.Lock()
	defer s.mu.Unlock()
	if s.closed {
		return nil
	}
	enqueued := 0
	for _, cand := range adopt {
		c := s.campaigns[cand.id]
		if s.sched.contains(cand.id) {
			continue
		}
		c.mu.Lock()
		racing := c.lease != nil || isTerminal(c.st.State)
		if !racing {
			c.st.State = StateQueued // in-memory; on-disk state is untouched until claimed
		}
		c.mu.Unlock()
		if racing {
			continue
		}
		s.sched.push(cand.st.Spec.tenant(), cand.id)
		enqueued++
		if cand.st.State == StateRunning {
			s.counter("service.resumed").Inc()
			s.log.Info("service: campaign re-enqueued for resume", "campaign", cand.id)
		} else if !initial {
			s.log.Debug("service: campaign adopted into queue", "campaign", cand.id)
		}
	}
	if enqueued > 0 {
		s.updateGaugesLocked()
		s.cond.Broadcast()
		if initial {
			s.log.Info("service: recovery complete", "enqueued", enqueued)
		}
	}
	return nil
}

// janitor periodically rescans the data root (every LeaseTTL/2),
// adopting campaigns whose owners died or drained, mirroring peer
// activity, and re-evaluating farm capacity for the dispatcher.
func (s *Service) janitor() {
	defer s.wg.Done()
	interval := s.cfg.LeaseTTL / 2
	if interval < 25*time.Millisecond {
		interval = 25 * time.Millisecond
	}
	t := time.NewTicker(interval)
	defer t.Stop()
	for {
		select {
		case <-s.baseCtx.Done():
			return
		case <-t.C:
		}
		// service/janitor simulates a janitor pass failing wholesale
		// (data root briefly unreadable): the pass is skipped and the
		// next tick retries, exactly like a real scan failure.
		if err := failpoint.Eval("service/janitor"); err != nil {
			s.log.Warn("service: janitor scan failed", "err", err)
			continue
		}
		if err := s.scan(false); err != nil {
			s.log.Warn("service: janitor scan failed", "err", err)
		}
		// Merge the fleet's knowledge journals into the compacted
		// snapshot, so external consumers read one file.
		if err := s.know.Compact(); err != nil {
			s.log.Warn("service: knowledge compaction failed", "err", err)
		}
		s.mu.Lock()
		s.updateGaugesLocked()
		s.cond.Broadcast() // capacity may have changed
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

// updateGaugesLocked refreshes every queue-shaped gauge: totals,
// per-tenant labeled series, the capacity clamp, and the autoscaling
// hint (how many simulation workers the current backlog wants). Caller
// holds s.mu.
func (s *Service) updateGaugesLocked() {
	s.gauge("service.queued").Set(int64(s.sched.len()))
	s.gauge("service.running").Set(int64(s.sched.busy))
	s.gauge("service.capacity").Set(int64(s.capacityLocked()))
	s.gauge("service.desired_workers").Set(int64(s.desiredWorkersLocked()))
	for tenant, n := range s.sched.queuedByTenant() {
		s.tenantGauge("service.queued", tenant).Set(int64(n))
	}
	for tenant, n := range s.sched.running {
		s.tenantGauge("service.running", tenant).Set(int64(n))
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
// submissions would be rejected with 429 anyway), when a locally
// running campaign has lost its lease (this replica is fenced and must
// not be routed to until it unwinds), and when the data root is no
// longer writable (submissions — and lease renewals — would fail).
func (s *Service) Ready() error {
	s.mu.Lock()
	closed, queued := s.closed, s.sched.len()
	var held []*lease.Handle
	var heldIDs []string
	for id, c := range s.campaigns {
		c.mu.Lock()
		if c.lease != nil {
			held = append(held, c.lease)
			heldIDs = append(heldIDs, id)
		}
		c.mu.Unlock()
	}
	s.mu.Unlock()
	var fenced []string
	for i, h := range held {
		// Verify (not Check): the slow probe detects a steal even when
		// the renewal goroutine is wedged — exactly the failure mode a
		// load balancer needs to see.
		if h.Verify() != nil {
			fenced = append(fenced, heldIDs[i])
		}
	}
	if closed {
		return ErrClosed
	}
	if queued >= s.cfg.MaxQueue {
		return fmt.Errorf("%w (capacity %d)", ErrQueueFull, s.cfg.MaxQueue)
	}
	if len(fenced) > 0 {
		sort.Strings(fenced)
		return fmt.Errorf("service: lost lease on running campaign %s", fenced[0])
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
// submission is durable before Submit returns: a daemon restart — or
// any peer replica on the same data root — re-enqueues it. Campaign
// ids are allocated with an O_EXCL directory create, so concurrent
// submissions across replicas never collide.
func (s *Service) Submit(spec Spec) (string, error) {
	if err := spec.validate(s.unit); err != nil {
		return "", err
	}
	// service/admit simulates admission-path failure (store unwritable,
	// overload shedding) after validation but before any state exists.
	if err := failpoint.Eval("service/admit"); err != nil {
		return "", fmt.Errorf("service: admitting campaign: %w", err)
	}
	tenant := spec.tenant()
	s.mu.Lock()
	if s.closed {
		s.mu.Unlock()
		return "", ErrClosed
	}
	if s.sched.len() >= s.cfg.MaxQueue {
		s.mu.Unlock()
		s.counter("service.rejected").Inc()
		s.tenantCounter("service.rejected", tenant).Inc()
		return "", fmt.Errorf("%w (capacity %d)", ErrQueueFull, s.cfg.MaxQueue)
	}
	var id, dir string
	for {
		id = fmt.Sprintf("c%06d", s.nextID)
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
		// A peer replica allocated this id concurrently; skip past it.
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
	if err := saveState(dir, &c.st); err != nil {
		s.mu.Unlock()
		return "", err
	}
	s.campaigns[id] = c
	s.sched.push(tenant, id)
	s.counter("service.submitted").Inc()
	s.tenantCounter("service.submitted", tenant).Inc()
	s.engineCounter("service.submitted", spec.engineName()).Inc()
	s.updateGaugesLocked()
	s.cond.Signal()
	s.mu.Unlock()
	s.rec.Emit("campaign_submitted", map[string]any{"id": id, "unit": spec.Unit, "tenant": tenant})
	s.log.Info("service: campaign submitted", "campaign", id, "unit", spec.Unit, "tenant", tenant)
	return id, nil
}

// Get returns a snapshot of the campaign's state (reports included once
// done), or nil if the id is unknown. For campaigns this replica is not
// itself running or queueing, the snapshot is refreshed from disk, so
// any replica serves the fleet-wide truth.
func (s *Service) Get(id string) *State {
	s.mu.Lock()
	c := s.campaigns[id]
	inSched := s.sched.contains(id)
	s.mu.Unlock()
	if c == nil {
		return nil
	}
	if !inSched && !c.settled() {
		c.refresh()
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
// sorted by id. Remote campaigns' states are as of the janitor's last
// scan; Get refreshes an individual campaign on demand.
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

// Scheduler returns the fair-share scheduler's live snapshot: this
// replica's identity, capacity clamps, the autoscaling hint, and
// per-tenant weights/queue depths/virtual times.
func (s *Service) Scheduler() SchedulerInfo {
	s.mu.Lock()
	defer s.mu.Unlock()
	info := SchedulerInfo{
		Owner:          s.owner,
		MaxRunning:     s.cfg.MaxRunning,
		Capacity:       s.capacityLocked(),
		Running:        s.sched.busy,
		Queued:         s.sched.len(),
		DesiredWorkers: s.desiredWorkersLocked(),
		LeaseTTLMillis: s.cfg.LeaseTTL.Milliseconds(),
		Tenants:        s.sched.stats(),
	}
	if s.cfg.Farm != nil {
		info.Farm = s.cfg.Farm.Health()
	}
	return info
}

// SchedulerInfo is GET /v1/scheduler's response body.
type SchedulerInfo struct {
	Owner          string       `json:"owner"`
	MaxRunning     int          `json:"max_running"`
	Capacity       int          `json:"capacity"`
	Running        int          `json:"running"`
	Queued         int          `json:"queued"`
	DesiredWorkers int          `json:"desired_workers"`
	LeaseTTLMillis int64        `json:"lease_ttl_ms"`
	Tenants        []TenantStat `json:"tenants"`
	// Farm is the per-worker health/quarantine state of the farm fleet
	// (omitted when the replica runs without a farm dispatcher).
	Farm []farm.WorkerHealth `json:"farm,omitempty"`
}

// Cancel stops a campaign: a queued one is withdrawn (arbitrated by a
// short-lived lease claim, so a peer replica cannot concurrently start
// it), a locally running one is interrupted (its journal keeps the
// completed prefix). A campaign running on a peer replica is left
// untouched — the returned state shows where it runs. Terminal
// campaigns are left untouched. Returns the post-cancel state, or nil
// for an unknown id.
func (s *Service) Cancel(id string) *State {
	s.mu.Lock()
	c := s.campaigns[id]
	if c == nil {
		s.mu.Unlock()
		return nil
	}
	removed := s.sched.remove(id)
	if removed {
		s.updateGaugesLocked()
	}
	s.mu.Unlock()

	c.mu.Lock()
	switch {
	case isTerminal(c.st.State):
		// nothing to do
	case c.cancel != nil:
		c.canceledByUser = true
		c.cancel()
	case removed:
		// Queued here: claim the lease so no peer can start it while we
		// write the terminal state — unless a peer finished it first.
		c.mu.Unlock()
		if h, err := s.leases.Acquire(c.dir, id); err == nil {
			c.refresh()
			c.mu.Lock()
			if !isTerminal(c.st.State) {
				s.finish(c, h, StateCanceled, nil)
			}
			c.mu.Unlock()
			h.Release()
		}
		c.mu.Lock()
	case c.canceledByUser:
		// claim in flight; the runner observes the flag
	default:
		// Remote (or mid-claim by a peer): not cancelable from this
		// replica.
		s.log.Info("service: cancel ignored for campaign owned elsewhere", "campaign", id)
	}
	st := c.st.clone()
	c.mu.Unlock()
	return st
}

// Wait blocks until the campaign reaches a terminal state, the context
// is done, or the id is unknown (returns immediately). For campaigns
// running on peer replicas, termination is observed by the janitor's
// next scan.
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
// The path is on the shared data root, so any replica can stream any
// campaign's events.
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

// RetryAfter is the backoff hint for ErrQueueFull rejections.
func (s *Service) RetryAfter() time.Duration { return s.cfg.RetryAfter }

// Close drains the service: no new submissions, running campaigns are
// interrupted (their journals checkpoint the completed prefix, their
// state stays "running" on disk, and their leases are released so the
// next daemon — or a live peer — adopts them immediately), and queued
// campaigns stay queued. Blocks until every campaign goroutine has
// exited.
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
	s.leases.Close()
	s.log.Info("service: drained")
}

// dispatch pops campaigns in weighted fair-share order whenever a
// running slot is free within the capacity clamp, claims each one's
// lease, and spawns its runner goroutine. A campaign whose lease a
// peer holds gives its slot straight back.
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
		s.updateGaugesLocked()
		s.mu.Unlock()

		if !s.claimAndRun(c, id, tenant) {
			s.release(tenant, false)
		}
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

// claimAndRun acquires the campaign's lease and launches its runner,
// reporting whether the running slot was consumed.
func (s *Service) claimAndRun(c *campaign, id, tenant string) bool {
	h, err := s.leases.Acquire(c.dir, id)
	if err != nil {
		// A peer owns it (or the data root failed): the janitor keeps
		// refreshing it.
		s.counter("service.lease_conflicts").Inc()
		s.log.Debug("service: campaign claimed by peer", "campaign", id, "err", err)
		return false
	}
	// A peer may have finished or canceled the campaign while it sat in
	// our queue.
	if st, err := c.refresh(); err == nil && isTerminal(st.State) {
		h.Release()
		return false
	}
	ctx, cancel := context.WithCancel(s.baseCtx)
	h.OnLost(cancel) // lease loss interrupts the flow at its next checkpoint

	c.mu.Lock()
	c.st.State = StateRunning
	c.st.StartedAt = now()
	c.st.Owner = s.owner
	c.st.Epoch = h.Epoch()
	c.lease = h
	c.cancel = cancel
	if c.canceledByUser {
		cancel() // canceled while we were claiming
	}
	// A fenced write fires OnLost, so the run ends fenced at its first
	// lease check.
	c.write(h, stateFile, c.st.slim())
	c.mu.Unlock()
	if h.Stolen() {
		s.counter("service.adopted").Inc()
		s.log.Info("service: campaign adopted from expired owner",
			"campaign", id, "epoch", h.Epoch())
	}
	s.wg.Add(1)
	go s.runCampaign(c, tenant, h, ctx, cancel)
	return true
}

// runCampaign executes one campaign to a terminal state (or to an
// interruption that the next owner resumes). Every write goes through
// the lease fence: if ownership was lost mid-run, nothing is written
// and the campaign is left to its new owner.
func (s *Service) runCampaign(c *campaign, tenant string, h *lease.Handle, ctx context.Context, cancel context.CancelFunc) {
	defer s.wg.Done()
	defer cancel()
	id := c.st.ID
	span := s.rec.Span("campaign", id)
	s.rec.Emit("campaign_start", map[string]any{
		"id": id, "unit": c.st.Spec.Unit, "tenant": tenant, "owner": s.owner, "epoch": h.Epoch()})
	s.log.Info("service: campaign started",
		"campaign", id, "unit", c.st.Spec.Unit, "tenant", tenant, "epoch", h.Epoch())

	reports, err := s.executeFlow(c, h, ctx)

	c.mu.Lock()
	c.cancel = nil
	c.lease = nil
	interrupted := errors.Is(err, core.ErrInterrupted)
	var state string
	switch {
	case err == nil:
		if err = c.write(h, reportFile, reports); err != nil {
			state = s.finish(c, h, StateFailed, err)
			break
		}
		s.feedKnowledge(id, c.st.Spec, reports, h)
		c.st.Reports = reports
		state = s.finish(c, h, StateDone, nil)
	case interrupted && c.canceledByUser:
		state = s.finish(c, h, StateCanceled, nil)
	case interrupted && h.Check() == nil:
		// Daemon drain: the journal holds the completed prefix and the
		// on-disk state stays "running"; releasing the lease below lets
		// any peer adopt it immediately. The in-memory campaign is
		// finished for this process's lifetime.
		c.finishLocked()
		state = c.st.State
	default:
		// A flow error, or a fenced run: finish writes nothing then.
		state = s.finish(c, h, StateFailed, err)
	}
	c.mu.Unlock()
	h.Release()

	s.rec.Emit("campaign_end", map[string]any{"id": id, "state": state})
	switch {
	case state == "fenced":
		s.log.Warn("service: campaign fenced (adopted by a peer)", "campaign", id, "epoch", h.Epoch())
	case err != nil && state == StateFailed:
		s.log.Warn("service: campaign failed", "campaign", id, "err", err)
	default:
		s.log.Info("service: campaign ended", "campaign", id, "state", state)
	}
	span.End()
	s.release(tenant, state == StateDone)
}

// finish moves a campaign this replica holds h for to the terminal
// state (with err's message when it failed): it writes campaign.json
// behind the fence, counts the campaign and closes its waiters. When h
// has lost the lease, finish writes and counts nothing and returns
// "fenced"; the waiters stay open until refresh reads the new owner's
// terminal state. Caller holds c.mu.
func (s *Service) finish(c *campaign, h *lease.Handle, state string, err error) string {
	st := c.st
	st.State = state
	st.FinishedAt = now()
	if err != nil {
		st.Error = err.Error()
	}
	if werr := c.write(h, stateFile, st.slim()); errors.Is(werr, lease.ErrFenced) {
		s.counter("service.fenced").Inc()
		return "fenced"
	}
	c.st = st
	c.finishLocked()
	s.countTerminal(&st)
	return state
}

// terminalCounters names the counter of each terminal state.
var terminalCounters = map[string]string{
	StateDone:     "service.completed",
	StateFailed:   "service.failed",
	StateCanceled: "service.canceled",
}

// countTerminal counts a campaign that reached a terminal state in the
// total and its tenant's series, and — done and failed only — its
// engine's.
func (s *Service) countTerminal(st *State) {
	name := terminalCounters[st.State]
	s.counter(name).Inc()
	s.tenantCounter(name, st.Spec.tenant()).Inc()
	if st.State != StateCanceled {
		s.engineCounter(name, st.Spec.engineName()).Inc()
	}
}

// executeFlow builds the campaign's journaled flow — with the lease's
// fencing check wired into every journal append — and runs the
// requested target, returning the per-round reports.
func (s *Service) executeFlow(c *campaign, h *lease.Handle, ctx context.Context) ([]*ReportJSON, error) {
	if err := h.Check(); err != nil {
		return nil, err
	}
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
		kp, err := s.campaignKnowledge(c, h)
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
	// Every journal append from here on carries the fencing epoch: a
	// stale owner's appends are rejected before any byte hits the file.
	if cur := flow.Journal(); cur != nil {
		cur.Writer().SetFence(h.Check)
	}
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

func (s *Service) counter(name string) *obs.Counter { return s.rec.Counter(name) }
func (s *Service) gauge(name string) *obs.Gauge     { return s.rec.Gauge(name) }

// tenantCounter and tenantGauge are the per-tenant labeled series
// (service.submitted{tenant="x"}, ...). Tenant names are validated at
// submission, so label cardinality is caller-bounded.
func (s *Service) tenantCounter(name, tenant string) *obs.Counter {
	if s.rec == nil {
		return nil
	}
	return s.rec.Metrics.CounterWith(name, obs.Labels("tenant", tenant))
}

func (s *Service) tenantGauge(name, tenant string) *obs.Gauge {
	if s.rec == nil {
		return nil
	}
	return s.rec.Metrics.GaugeWith(name, obs.Labels("tenant", tenant))
}

// engineCounter is the per-engine labeled series
// (service.submitted{engine="ranker"}, ...). Engine names come from the
// registry, so label cardinality is bounded by opt.EngineNames().
func (s *Service) engineCounter(name, engine string) *obs.Counter {
	if s.rec == nil {
		return nil
	}
	return s.rec.Metrics.CounterWith(name, obs.Labels("engine", engine))
}

// Knowledge returns the merged fleet-wide knowledge base (the
// GET /v1/knowledge body).
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
// computes it from the store on first start and persists it (fenced —
// only the lease owner may write into the campaign directory).
func (s *Service) campaignKnowledge(c *campaign, h *lease.Handle) (*knowledgeSnapshot, error) {
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
	if err := c.write(h, knowledgeFile, kp); err != nil {
		return nil, err
	}
	return kp, nil
}

// feedKnowledge appends the campaign's harvests to the knowledge base.
// Fenced like every terminal write: a stale owner must not feed — its
// adopter will, and (campaign, round) keying deduplicates a replayed
// feed anyway.
func (s *Service) feedKnowledge(id string, spec Spec, reports []*ReportJSON, h *lease.Handle) {
	entries := knowledgeEntries(id, spec, reports)
	if len(entries) == 0 {
		return
	}
	if h.Verify() != nil {
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

// idNumber parses the numeric part of a campaign id ("c000042" → 42);
// foreign directory names yield 0 and never advance the allocator.
func idNumber(id string) int {
	var n int
	if _, err := fmt.Sscanf(id, "c%d", &n); err != nil {
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

// saveState writes a new campaign's first state; every later write
// into the campaign directory goes through campaign.write's fence.
func saveState(dir string, st *State) error {
	return atomicfile.WriteJSON(filepath.Join(dir, stateFile), st.slim())
}

func loadReports(dir string) ([]*ReportJSON, error) {
	var reports []*ReportJSON
	err := atomicfile.ReadJSON(filepath.Join(dir, reportFile), &reports)
	return reports, err
}
