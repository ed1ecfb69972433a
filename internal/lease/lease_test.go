package lease

import (
	"errors"
	"io/fs"
	"os"
	"path/filepath"
	"slices"
	"sync"
	"testing"
	"time"
)

func newManager(t *testing.T, owner string, ttl time.Duration) *Manager {
	t.Helper()
	m, err := NewManager(Options{Owner: owner, TTL: ttl})
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(m.Close)
	return m
}

// fakeClock is a lease clock that moves only when the test steps it,
// so expiry does not depend on how fast a loaded machine schedules the
// test or syncs its files.
type fakeClock struct {
	mu sync.Mutex
	t  time.Time
}

func newFakeClock(ms ...*Manager) *fakeClock {
	c := &fakeClock{t: time.Date(2024, 1, 1, 0, 0, 0, 0, time.UTC)}
	for _, m := range ms {
		m.now = c.now
	}
	return c
}

func (c *fakeClock) now() time.Time {
	c.mu.Lock()
	defer c.mu.Unlock()
	return c.t
}

func (c *fakeClock) advance(d time.Duration) {
	c.mu.Lock()
	c.t = c.t.Add(d)
	c.mu.Unlock()
}

func campaignDir(t *testing.T) string {
	t.Helper()
	dir := filepath.Join(t.TempDir(), "c000001")
	if err := os.Mkdir(dir, 0o755); err != nil {
		t.Fatal(err)
	}
	return dir
}

func TestAcquireReleaseCycle(t *testing.T) {
	m := newManager(t, "r1", time.Second)
	dir := campaignDir(t)

	h, err := m.Acquire(dir, "c000001")
	if err != nil {
		t.Fatal(err)
	}
	if h.Epoch() != 1 {
		t.Fatalf("first epoch = %d, want 1", h.Epoch())
	}
	if h.Stolen() {
		t.Fatal("fresh acquisition reported as stolen")
	}
	if err := h.Check(); err != nil {
		t.Fatalf("Check on held lease: %v", err)
	}
	if err := h.Verify(); err != nil {
		t.Fatalf("Verify on held lease: %v", err)
	}
	rec, err := Peek(dir)
	if err != nil || rec == nil {
		t.Fatalf("Peek = %v, %v", rec, err)
	}
	if rec.Owner != "r1" || rec.Epoch != 1 || rec.Released {
		t.Fatalf("record = %+v", rec)
	}

	h.Release()
	rec, err = Peek(dir)
	if err != nil || rec == nil || !rec.Released {
		t.Fatalf("after Release: record = %+v, err %v", rec, err)
	}

	// A released lease is instantly claimable, with a higher epoch.
	h2, err := m.Acquire(dir, "c000001")
	if err != nil {
		t.Fatal(err)
	}
	if h2.Epoch() <= h.Epoch() {
		t.Fatalf("reacquired epoch %d not above released epoch %d", h2.Epoch(), h.Epoch())
	}
	h2.Release()
}

func TestAcquireHeldByLiveOwner(t *testing.T) {
	m1 := newManager(t, "r1", time.Minute)
	m2 := newManager(t, "r2", time.Minute)
	dir := campaignDir(t)

	h, err := m1.Acquire(dir, "c000001")
	if err != nil {
		t.Fatal(err)
	}
	defer h.Release()
	if _, err := m2.Acquire(dir, "c000001"); !errors.Is(err, ErrHeld) {
		t.Fatalf("second owner's Acquire err = %v, want ErrHeld", err)
	}
}

// TestStealOnExpiry is the adoption path: a holder that stops renewing
// (kill -9, stall) loses the campaign after TTL, the thief's epoch
// fences the original, and the original handle notices via Verify and
// OnLost.
func TestStealOnExpiry(t *testing.T) {
	ttl := 150 * time.Millisecond
	m1 := newManager(t, "r1", ttl)
	m2 := newManager(t, "r2", ttl)
	clock := newFakeClock(m1, m2)
	dir := campaignDir(t)

	h1, err := m1.Acquire(dir, "c000001")
	if err != nil {
		t.Fatal(err)
	}
	lost := make(chan struct{})
	var once sync.Once
	h1.OnLost(func() { once.Do(func() { close(lost) }) })
	h1.Suspend(true) // simulate a stalled replica: lease expires

	// Until expiry the lease is not stealable, up to its last instant.
	if _, err := m2.Acquire(dir, "c000001"); !errors.Is(err, ErrHeld) {
		t.Fatalf("pre-expiry Acquire err = %v, want ErrHeld", err)
	}
	clock.advance(ttl - time.Millisecond)
	if _, err := m2.Acquire(dir, "c000001"); !errors.Is(err, ErrHeld) {
		t.Fatalf("Acquire 1ms before expiry err = %v, want ErrHeld", err)
	}

	clock.advance(time.Millisecond)
	h2, err := m2.Acquire(dir, "c000001")
	if err != nil {
		t.Fatalf("Acquire at expiry err = %v, want the lease", err)
	}
	defer h2.Release()
	if !h2.Stolen() {
		t.Fatal("steal not reported as stolen")
	}
	if h2.Epoch() <= h1.Epoch() {
		t.Fatalf("thief epoch %d not above victim epoch %d", h2.Epoch(), h1.Epoch())
	}

	// The victim's slow probe fences immediately; its fast probe follows.
	if err := h1.Verify(); !errors.Is(err, ErrFenced) {
		t.Fatalf("victim Verify err = %v, want ErrFenced", err)
	}
	if err := h1.Check(); !errors.Is(err, ErrFenced) {
		t.Fatalf("victim Check err = %v, want ErrFenced", err)
	}
	select {
	case <-lost:
	case <-time.After(2 * time.Second):
		t.Fatal("OnLost never fired")
	}

	// Releasing a fenced handle must not clobber the thief's record.
	h1.Release()
	rec, err := Peek(dir)
	if err != nil || rec == nil {
		t.Fatalf("Peek = %v, %v", rec, err)
	}
	if rec.Owner != "r2" || rec.Released {
		t.Fatalf("thief's record clobbered by fenced release: %+v", rec)
	}
}

// TestRenewIntervalBeatsTTL: the renewal ticker fires at least twice per
// TTL in real time, so a holder that misses one tick still renews
// before its lease expires.
func TestRenewIntervalBeatsTTL(t *testing.T) {
	for _, ttl := range []time.Duration{
		15 * time.Millisecond, 120 * time.Millisecond, time.Second, 10 * time.Second, time.Hour,
	} {
		if iv := renewInterval(ttl); iv <= 0 || 2*iv >= ttl {
			t.Errorf("renewInterval(%v) = %v, want in (0, TTL/2)", ttl, iv)
		}
	}
}

// TestRenewalExtendsLease: a healthy holder's lease stays live well past
// the TTL because the renewal goroutine keeps pushing RenewedAt. The
// lease clock moves a third of a TTL at a time, and each step waits for
// a renewal to stamp the new instant before a peer tries to steal;
// TestRenewIntervalBeatsTTL checks the real-time cadence.
func TestRenewalExtendsLease(t *testing.T) {
	ttl := 120 * time.Millisecond
	m1 := newManager(t, "r1", ttl)
	m2 := newManager(t, "r2", ttl)
	clock := newFakeClock(m1, m2)
	dir := campaignDir(t)

	h, err := m1.Acquire(dir, "c000001")
	if err != nil {
		t.Fatal(err)
	}
	defer h.Release()
	for step := 1; step <= 9; step++ {
		clock.advance(ttl / 3)
		deadline := time.Now().Add(5 * time.Second)
		for {
			rec, err := Peek(dir)
			if err != nil {
				t.Fatal(err)
			}
			if !rec.RenewedAt.Before(clock.now()) {
				break
			}
			if time.Now().After(deadline) {
				t.Fatalf("step %d: lease not renewed since %v", step, rec.RenewedAt)
			}
			time.Sleep(5 * time.Millisecond)
		}
		if _, err := m2.Acquire(dir, "c000001"); !errors.Is(err, ErrHeld) {
			t.Fatalf("renewed lease was stealable %d/3 TTL after acquisition: err = %v", step, err)
		}
	}
	if err := h.Check(); err != nil {
		t.Fatalf("healthy holder fenced: %v", err)
	}
}

// TestConcurrentClaimSingleWinner: many managers racing for one free
// lease produce exactly one holder per epoch — the O_EXCL arbitration.
func TestConcurrentClaimSingleWinner(t *testing.T) {
	dir := campaignDir(t)
	const racers = 8
	var wg sync.WaitGroup
	var mu sync.Mutex
	winners := map[uint64]int{}
	for i := 0; i < racers; i++ {
		m := newManager(t, "racer"+string(rune('a'+i)), time.Minute)
		wg.Add(1)
		go func() {
			defer wg.Done()
			h, err := m.Acquire(dir, "c000001")
			if err != nil {
				return
			}
			mu.Lock()
			winners[h.Epoch()]++
			mu.Unlock()
		}()
	}
	wg.Wait()
	if len(winners) == 0 {
		t.Fatal("no racer acquired the free lease")
	}
	for epoch, n := range winners {
		if n != 1 {
			t.Fatalf("epoch %d acquired by %d racers, want at most 1", epoch, n)
		}
	}
}

// TestEpochMonotonicAcrossCrashedClaims: a claimer that died between
// creating its guard file and writing its record must not make its
// epoch reusable.
func TestEpochMonotonicAcrossCrashedClaims(t *testing.T) {
	dir := campaignDir(t)
	// Simulate the half-claim: guard for epoch 7 exists, no record.
	if err := claimEpoch(dir, 7); err != nil {
		t.Fatal(err)
	}
	m := newManager(t, "r1", time.Minute)
	h, err := m.Acquire(dir, "c000001")
	if err != nil {
		t.Fatal(err)
	}
	defer h.Release()
	if h.Epoch() != 8 {
		t.Fatalf("epoch = %d, want 8 (past the orphaned guard)", h.Epoch())
	}
}

// TestStaleClaimDoesNotReissueAnEpoch: the files an interleaving leaves
// when epoch 3 was won and its winner dropped the guards below it — guard
// 3 and its record, guard 2 gone — met by a claimer whose scan still saw
// base 1. Re-creating guard 2 succeeds, but epoch 2 was issued already:
// the claim must be a lost race, and must leave the directory as it was.
func TestStaleClaimDoesNotReissueAnEpoch(t *testing.T) {
	dir := campaignDir(t)
	if err := claimEpoch(dir, 3); err != nil {
		t.Fatal(err)
	}
	if err := writeRecord(dir, &Record{Campaign: "c000001", Owner: "r3", Epoch: 3, RenewedAt: time.Now().UTC(), TTLMillis: 60000}); err != nil {
		t.Fatal(err)
	}
	before := dirEntries(t, dir)
	epoch, err := claimAbove(dir, 1)
	if err == nil {
		t.Fatalf("claim from stale base 1 won epoch %d below the issued epoch 3", epoch)
	}
	if !errors.Is(err, fs.ErrExist) {
		t.Fatalf("claim from stale base 1: %v, want a lost race (fs.ErrExist)", err)
	}
	if after := dirEntries(t, dir); !slices.Equal(after, before) {
		t.Fatalf("lost claim left the directory as %v, was %v", after, before)
	}
	if epoch, err := claimAbove(dir, 3); err != nil || epoch != 4 {
		t.Fatalf("claim from the current base 3 = %d, %v; want epoch 4", epoch, err)
	}
}

func TestManagerCloseReleasesAll(t *testing.T) {
	m, err := NewManager(Options{Owner: "r1", TTL: time.Minute})
	if err != nil {
		t.Fatal(err)
	}
	dir := campaignDir(t)
	if _, err := m.Acquire(dir, "c000001"); err != nil {
		t.Fatal(err)
	}
	m.Close()
	rec, err := Peek(dir)
	if err != nil || rec == nil || !rec.Released {
		t.Fatalf("after manager Close: record = %+v, err %v", rec, err)
	}
	if _, err := m.Acquire(dir, "c000001"); !errors.Is(err, ErrReleased) {
		t.Fatalf("Acquire after Close err = %v, want ErrReleased", err)
	}
}

func TestOwnerSelfReacquire(t *testing.T) {
	m := newManager(t, "r1", time.Minute)
	dir := campaignDir(t)
	h1, err := m.Acquire(dir, "c000001")
	if err != nil {
		t.Fatal(err)
	}
	// The same owner restarting (same identity, dead renewals) may
	// reclaim its own un-expired lease; the epoch still advances so the
	// old incarnation's writes are fenced.
	h2, err := m.Acquire(dir, "c000001")
	if err != nil {
		t.Fatal(err)
	}
	defer h2.Release()
	if h2.Epoch() <= h1.Epoch() {
		t.Fatalf("self-reacquire epoch %d did not advance past %d", h2.Epoch(), h1.Epoch())
	}
	if err := h1.Verify(); !errors.Is(err, ErrFenced) {
		t.Fatalf("old incarnation Verify err = %v, want ErrFenced", err)
	}
}

func TestNewManagerValidation(t *testing.T) {
	if _, err := NewManager(Options{}); err == nil {
		t.Fatal("empty owner accepted")
	}
	if _, err := NewManager(Options{Owner: "bad\"quote"}); err == nil {
		t.Fatal("owner with quote accepted")
	}
}
