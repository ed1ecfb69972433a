// Package lease implements campaign ownership for a fleet of cdgd
// replicas sharing one data root (DESIGN.md §12). A lease is a small
// JSON record (lease.json) inside a campaign directory, written with
// the same write-fsync-rename discipline as every other service
// artifact (internal/atomicfile), carrying the holder's identity, a
// monotonically increasing fencing epoch, and a renewal deadline.
//
// The protocol has three moving parts:
//
//   - Acquisition. A replica may claim a campaign whose lease is
//     absent, released, expired, or already its own. Claiming epoch
//     N is arbitrated by an O_EXCL guard file (lease.epoch.N): the
//     filesystem guarantees at most one creator, and a re-scan after
//     the create turns back a claimer whose N is stale (its guard was
//     already dropped behind a higher epoch), so at most one owner ever
//     holds a given epoch, and epochs only grow.
//
//   - Renewal. A background goroutine re-reads the record and rewrites
//     RenewedAt every TTL/3. A renewal that finds a higher epoch (or a
//     different owner, or an I/O failure) marks the handle fenced and
//     fires the OnLost callback — the holder must stop working.
//
//   - Fencing. Every write the holder performs on the campaign's
//     behalf — journal appends via journal.Writer.SetFence, state and
//     report writes via Verify — carries the handle's epoch and is
//     rejected with ErrFenced once a higher epoch exists. A replica
//     that was paused past its TTL therefore cannot corrupt the
//     campaign an adopter is now running.
//
// Kill -9 is the expected failure mode: a dead holder simply stops
// renewing, the lease expires after TTL, and any peer's next scan
// adopts the campaign (steal-on-expiry). The journal's replay makes
// the adopted run bit-identical to an uninterrupted one.
package lease

import (
	"errors"
	"fmt"
	"io/fs"
	"log/slog"
	"os"
	"path/filepath"
	"strconv"
	"strings"
	"sync"
	"sync/atomic"
	"time"

	"repro/internal/atomicfile"
	"repro/internal/failpoint"
	"repro/internal/obs"
)

// File is the lease record's name inside a campaign directory.
const File = "lease.json"

// guardPrefix names the per-epoch O_EXCL claim markers.
const guardPrefix = "lease.epoch."

var (
	// ErrHeld reports an acquisition attempt on a lease another owner
	// holds and is still renewing.
	ErrHeld = errors.New("lease: held by another owner")

	// ErrFenced reports a write attempted with a superseded epoch: a
	// newer owner exists and the caller must abandon the campaign.
	ErrFenced = errors.New("lease: fenced")

	// ErrReleased reports an operation on a handle after Release.
	ErrReleased = errors.New("lease: released")
)

// Record is the persisted lease state. TTLMillis rather than a
// time.Duration keeps the JSON stable and human-readable.
type Record struct {
	Campaign  string    `json:"campaign"`
	Owner     string    `json:"owner"`
	Epoch     uint64    `json:"epoch"`
	RenewedAt time.Time `json:"renewed_at"`
	TTLMillis int64     `json:"ttl_ms"`
	// Released marks a clean hand-off (drain, completion): the lease is
	// immediately claimable without waiting for expiry.
	Released bool `json:"released,omitempty"`
}

// TTL returns the record's time-to-live as a duration.
func (r *Record) TTL() time.Duration { return time.Duration(r.TTLMillis) * time.Millisecond }

// Expired reports whether the lease no longer protects its campaign at
// the given instant.
func (r *Record) Expired(now time.Time) bool {
	return r.Released || !now.Before(r.RenewedAt.Add(r.TTL()))
}

// Peek reads the lease record in dir, returning (nil, nil) when no
// lease has ever been written.
func Peek(dir string) (*Record, error) {
	var rec Record
	switch err := atomicfile.ReadJSON(filepath.Join(dir, File), &rec); {
	case errors.Is(err, fs.ErrNotExist):
		return nil, nil
	case err != nil:
		return nil, fmt.Errorf("lease: %w", err)
	}
	return &rec, nil
}

// Options configures a Manager.
type Options struct {
	// Owner is this replica's identity (required, unique per live
	// replica — cdgd defaults to host-pid).
	Owner string

	// TTL is how long a lease protects its campaign without renewal
	// (default 10s). Renewals run every TTL/3.
	TTL time.Duration

	// Rec counts lease.* metrics (acquired, stolen, renewed, lost,
	// released, conflicts). nil disables.
	Rec *obs.Recorder

	// Log receives structured lease lifecycle events. nil discards.
	Log *slog.Logger
}

// Manager acquires and renews leases on behalf of one replica.
type Manager struct {
	owner string
	ttl   time.Duration
	rec   *obs.Recorder
	log   *slog.Logger
	now   func() time.Time // the lease clock; tests step a fake one

	mu      sync.Mutex
	handles map[*Handle]struct{}
	closed  bool
}

// NewManager validates opts and returns a Manager.
func NewManager(opts Options) (*Manager, error) {
	if opts.Owner == "" {
		return nil, errors.New("lease: Options.Owner is required")
	}
	if strings.ContainsAny(opts.Owner, "\n\"") {
		return nil, fmt.Errorf("lease: invalid owner %q", opts.Owner)
	}
	if opts.TTL <= 0 {
		opts.TTL = 10 * time.Second
	}
	return &Manager{
		owner:   opts.Owner,
		ttl:     opts.TTL,
		rec:     opts.Rec,
		log:     obs.OrNop(opts.Log),
		now:     time.Now,
		handles: map[*Handle]struct{}{},
	}, nil
}

// Owner returns the manager's replica identity.
func (m *Manager) Owner() string { return m.owner }

// TTL returns the manager's lease time-to-live.
func (m *Manager) TTL() time.Duration { return m.ttl }

// Claimable reports whether the record (nil = never leased) could be
// acquired by this manager's owner right now: free, released, expired,
// or already ours (a previous incarnation of this replica).
func (m *Manager) Claimable(rec *Record) bool {
	return rec == nil || rec.Owner == m.owner || rec.Expired(m.now())
}

// Acquire claims the campaign lease in dir, bumping the fencing epoch
// past every epoch ever issued there, and starts the renewal goroutine.
// It returns ErrHeld (possibly wrapped) when another live owner holds
// the lease or wins the claim race.
func (m *Manager) Acquire(dir, campaign string) (*Handle, error) {
	m.mu.Lock()
	if m.closed {
		m.mu.Unlock()
		return nil, ErrReleased
	}
	m.mu.Unlock()
	// lease/claim simulates a data root that refuses the claim (NFS
	// hiccup, permission flap) before any guard or record is touched.
	if err := failpoint.Eval("lease/claim"); err != nil {
		return nil, fmt.Errorf("lease: claiming %s: %w", campaign, err)
	}
	for attempt := 0; attempt < 4; attempt++ {
		rec, err := Peek(dir)
		if err != nil {
			return nil, err
		}
		if rec != nil && rec.Owner != m.owner && !rec.Expired(m.now()) {
			return nil, fmt.Errorf("%w: campaign %s held by %s (epoch %d, expires %s)",
				ErrHeld, campaign, rec.Owner, rec.Epoch,
				rec.RenewedAt.Add(rec.TTL()).Format(time.RFC3339))
		}
		var base uint64
		if rec != nil {
			base = rec.Epoch
		}
		maxGuard, err := maxGuardEpoch(dir)
		if err != nil {
			return nil, err
		}
		if maxGuard > base {
			base = maxGuard
		}
		epoch, err := claimAbove(dir, base)
		if err != nil {
			if errors.Is(err, fs.ErrExist) {
				// A peer is claiming concurrently; give it a moment to write
				// its record, then re-read. If its lease turns out live we
				// return ErrHeld on the next pass.
				time.Sleep(time.Duration(2+attempt*3) * time.Millisecond)
				continue
			}
			return nil, err
		}
		now := m.now().UTC()
		newRec := &Record{
			Campaign:  campaign,
			Owner:     m.owner,
			Epoch:     epoch,
			RenewedAt: now,
			TTLMillis: m.ttl.Milliseconds(),
		}
		if err := writeRecord(dir, newRec); err != nil {
			return nil, err
		}
		dropStaleGuards(dir, epoch)
		stolen := rec != nil && rec.Owner != m.owner && !rec.Released
		if stolen {
			m.counter("lease.stolen").Inc()
			m.log.Info("lease: stolen from expired owner",
				"campaign", campaign, "prev_owner", rec.Owner, "prev_epoch", rec.Epoch, "epoch", epoch)
		} else {
			m.log.Debug("lease: acquired", "campaign", campaign, "epoch", epoch)
		}
		m.counter("lease.acquired").Inc()
		h := &Handle{
			m:        m,
			dir:      dir,
			campaign: campaign,
			epoch:    epoch,
			stolen:   stolen,
			stop:     make(chan struct{}),
			done:     make(chan struct{}),
		}
		m.mu.Lock()
		if m.closed {
			m.mu.Unlock()
			close(h.done)
			h.writeReleased()
			return nil, ErrReleased
		}
		m.handles[h] = struct{}{}
		m.mu.Unlock()
		go h.renewLoop()
		return h, nil
	}
	m.counter("lease.conflicts").Inc()
	return nil, fmt.Errorf("%w: campaign %s claim contended", ErrHeld, campaign)
}

// Close releases every live handle (marking their records released so
// peers can adopt immediately) and refuses further acquisitions.
func (m *Manager) Close() {
	m.mu.Lock()
	if m.closed {
		m.mu.Unlock()
		return
	}
	m.closed = true
	hs := make([]*Handle, 0, len(m.handles))
	for h := range m.handles {
		hs = append(hs, h)
	}
	m.mu.Unlock()
	for _, h := range hs {
		h.Release()
	}
}

func (m *Manager) counter(name string) *obs.Counter { return m.rec.Counter(name) }

// Handle is one held lease. All methods are safe for concurrent use.
type Handle struct {
	m        *Manager
	dir      string
	campaign string
	epoch    uint64
	stolen   bool

	fenced    atomic.Bool
	suspended atomic.Bool
	released  atomic.Bool

	mu     sync.Mutex
	onLost func()

	stop     chan struct{}
	stopOnce sync.Once
	done     chan struct{}
}

// Epoch returns the handle's fencing epoch.
func (h *Handle) Epoch() uint64 { return h.epoch }

// Campaign returns the campaign id the lease protects.
func (h *Handle) Campaign() string { return h.campaign }

// Stolen reports whether this acquisition displaced another owner's
// expired lease (i.e. the campaign was adopted, not started fresh).
func (h *Handle) Stolen() bool { return h.stolen }

// OnLost registers f to run (once, from the renewal goroutine) when the
// handle is fenced — typically canceling the campaign's context. A
// handle that is already fenced runs f immediately.
func (h *Handle) OnLost(f func()) {
	h.mu.Lock()
	h.onLost = f
	h.mu.Unlock()
	if h.fenced.Load() {
		h.fireLost()
	}
}

// Check is the fast fencing probe, suitable for per-append use: it
// consults the renewal goroutine's view and returns ErrFenced (wrapped,
// carrying both epochs' identities) once ownership is lost.
func (h *Handle) Check() error {
	if h.fenced.Load() {
		return fmt.Errorf("%w: campaign %s epoch %d superseded (owner %s)",
			ErrFenced, h.campaign, h.epoch, h.m.owner)
	}
	return nil
}

// Verify is the slow fencing probe for rare, high-stakes writes (state
// transitions, report.json): it re-reads the lease record from disk and
// fences the handle if the epoch moved on.
func (h *Handle) Verify() error {
	if err := h.Check(); err != nil {
		return err
	}
	rec, err := Peek(h.dir)
	if err != nil {
		return err
	}
	if rec == nil || rec.Owner != h.m.owner || rec.Epoch != h.epoch {
		h.markLost(rec)
		return h.Check()
	}
	return nil
}

// Suspend pauses (true) or resumes (false) the renewal goroutine
// without releasing the lease — the chaos seam that simulates a replica
// stalled past its TTL (the lease expires, a peer steals it, and this
// handle fences on its next renewal or Verify).
func (h *Handle) Suspend(v bool) { h.suspended.Store(v) }

// Release stops renewing and, when the lease is still ours, rewrites
// the record as released so peers can claim it without waiting for
// expiry. Idempotent.
func (h *Handle) Release() {
	if h.released.Swap(true) {
		return
	}
	h.stopOnce.Do(func() { close(h.stop) })
	<-h.done
	if h.fenced.Load() {
		return // not ours to release any more
	}
	h.writeReleased()
	h.m.counter("lease.released").Inc()
	h.m.mu.Lock()
	delete(h.m.handles, h)
	h.m.mu.Unlock()
}

func (h *Handle) writeReleased() {
	rec, err := Peek(h.dir)
	if err != nil || rec == nil || rec.Owner != h.m.owner || rec.Epoch != h.epoch {
		return // superseded (or unreadable): leave the current record alone
	}
	rec.Released = true
	rec.RenewedAt = h.m.now().UTC()
	writeRecord(h.dir, rec)
}

// renewInterval is how often a holder renews a lease of the given TTL:
// three times per TTL, so one late tick still renews before expiry.
func renewInterval(ttl time.Duration) time.Duration {
	return max(ttl/3, 5*time.Millisecond)
}

// renewLoop rewrites RenewedAt every renewInterval until the handle is
// released or fenced.
func (h *Handle) renewLoop() {
	defer close(h.done)
	t := time.NewTicker(renewInterval(h.m.ttl))
	defer t.Stop()
	for {
		select {
		case <-h.stop:
			return
		case <-t.C:
		}
		if h.suspended.Load() {
			continue
		}
		// lease/renew simulates renewal failure (delay models a stalled
		// data root and is not an error): the handle fences conservatively
		// exactly as it would on a real write failure.
		if err := failpoint.Eval("lease/renew"); err != nil {
			h.markLost(nil)
			return
		}
		rec, err := Peek(h.dir)
		if err != nil || rec == nil || rec.Owner != h.m.owner || rec.Epoch != h.epoch {
			h.markLost(rec)
			return
		}
		rec.RenewedAt = h.m.now().UTC()
		if err := writeRecord(h.dir, rec); err != nil {
			// A data root we cannot write is a data root whose lease we
			// cannot defend: fence conservatively rather than run past TTL.
			h.markLost(rec)
			return
		}
		h.m.counter("lease.renewed").Inc()
	}
}

// markLost fences the handle and fires OnLost once.
func (h *Handle) markLost(cur *Record) {
	if h.fenced.Swap(true) {
		return
	}
	h.m.counter("lease.lost").Inc()
	if cur != nil {
		h.m.log.Warn("lease: lost",
			"campaign", h.campaign, "epoch", h.epoch,
			"new_owner", cur.Owner, "new_epoch", cur.Epoch)
	} else {
		h.m.log.Warn("lease: lost", "campaign", h.campaign, "epoch", h.epoch)
	}
	h.fireLost()
}

func (h *Handle) fireLost() {
	h.mu.Lock()
	f := h.onLost
	h.onLost = nil
	h.mu.Unlock()
	if f != nil {
		f()
	}
}

// writeRecord persists the record crash-safely.
func writeRecord(dir string, rec *Record) error {
	return atomicfile.WriteJSON(filepath.Join(dir, File), rec)
}

// guardPath names epoch's guard file in dir.
func guardPath(dir string, epoch uint64) string {
	return filepath.Join(dir, guardPrefix+strconv.FormatUint(epoch, 10))
}

// claimEpoch creates the O_EXCL guard file arbitrating epoch ownership.
func claimEpoch(dir string, epoch uint64) error {
	f, err := os.OpenFile(guardPath(dir, epoch), os.O_CREATE|os.O_EXCL|os.O_WRONLY, 0o644)
	if err != nil {
		return err
	}
	return f.Close()
}

// claimAbove claims the epoch after base: it creates that epoch's guard,
// then scans the guards again. A guard above the new one means base was
// stale — the winner of a higher epoch had already dropped the guard this
// claim re-created — so the claim is a lost race (fs.ErrExist) and its
// guard is removed again (best-effort, as in dropStaleGuards: a guard
// left below the top one is litter the next winner drops). The re-scan
// cannot miss the higher guard: the newest guard is never dropped.
func claimAbove(dir string, base uint64) (uint64, error) {
	epoch := base + 1
	if err := claimEpoch(dir, epoch); err != nil {
		return 0, err
	}
	top, err := maxGuardEpoch(dir)
	if err != nil {
		return 0, err
	}
	if top > epoch {
		os.Remove(guardPath(dir, epoch))
		return 0, fmt.Errorf("lease: epoch %d already superseded by %d: %w", epoch, top, fs.ErrExist)
	}
	return epoch, nil
}

// maxGuardEpoch scans dir for claim markers and returns the highest
// epoch ever claimed (0 when none) — this keeps epochs monotonic even
// when a claimer died between creating its guard and writing its
// record.
func maxGuardEpoch(dir string) (uint64, error) {
	entries, err := os.ReadDir(dir)
	if err != nil {
		return 0, err
	}
	var max uint64
	for _, e := range entries {
		if !strings.HasPrefix(e.Name(), guardPrefix) {
			continue
		}
		if n, err := strconv.ParseUint(strings.TrimPrefix(e.Name(), guardPrefix), 10, 64); err == nil && n > max {
			max = n
		}
	}
	return max, nil
}

// dropStaleGuards removes claim markers below the now-current epoch;
// they have served their arbitration purpose. Best-effort.
func dropStaleGuards(dir string, current uint64) {
	entries, err := os.ReadDir(dir)
	if err != nil {
		return
	}
	for _, e := range entries {
		if !strings.HasPrefix(e.Name(), guardPrefix) {
			continue
		}
		if n, err := strconv.ParseUint(strings.TrimPrefix(e.Name(), guardPrefix), 10, 64); err == nil && n < current {
			os.Remove(filepath.Join(dir, e.Name()))
		}
	}
}
