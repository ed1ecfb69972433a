package farm

import (
	"errors"
	"net"
	"sync"
	"testing"
	"time"

	"repro/internal/coverage"
	"repro/internal/duv/iounit"
	"repro/internal/obs"
	"repro/internal/sim"
)

// testClock is a manual clock for Dispatcher.now: a cooldown passes
// when the test steps the clock, not when the wall clock does.
type testClock struct{ t time.Time }

func (c *testClock) now() time.Time         { return c.t }
func (c *testClock) step(dur time.Duration) { c.t = c.t.Add(dur) }

// newTestHealth builds a dispatcher's worker records over the given
// addresses on a manual clock, with no keeper running: the test is the
// keeper, asking next what to do.
func newTestHealth(addrs []string, rec *obs.Recorder) (*Dispatcher, *testClock) {
	clk := &testClock{t: time.Unix(0, 0)}
	d := newDispatcher(addrs, Options{Rec: rec})
	d.now = clk.now
	return d, clk
}

// fail scores n failed exchanges against the worker.
func fail(d *Dispatcher, wk *worker, n int) {
	for i := 0; i < n; i++ {
		d.outcome(wk, 0, false)
	}
}

// succeed scores n successful exchanges of the given latency.
func succeed(d *Dispatcher, wk *worker, dur time.Duration, n int) {
	for i := 0; i < n; i++ {
		d.outcome(wk, dur, true)
	}
}

// healthOf returns the worker's row of the dispatcher's Health.
func healthOf(t *testing.T, d *Dispatcher, addr string) WorkerHealth {
	t.Helper()
	for _, h := range d.Health() {
		if h.Addr == addr {
			return h
		}
	}
	t.Fatalf("no health row for %q", addr)
	return WorkerHealth{}
}

// TestHealthErrorQuarantineAndHeal walks the breaker through its full
// cycle: error-rate quarantine, the keeper told to wait out the
// cooldown, half-open asking for exactly one probe connection, and a
// successful probe healing the worker with its sample count reset.
func TestHealthErrorQuarantineAndHeal(t *testing.T) {
	rec := obs.NewRecorder()
	d, clk := newTestHealth([]string{"a", "b"}, rec)
	a := d.workers[0]

	// Four straight failures push errEWMA to 1-0.7^4 ≈ 0.76 > 0.5 with
	// samples == minSamples, so the breaker opens on the fourth.
	fail(d, a, 4)
	if d.allowed(a) {
		t.Fatalf("worker a still allowed after 4/4 failed exchanges")
	}
	if got := rec.Gauge("farm.workers_quarantined").Value(); got != 1 {
		t.Fatalf("workers_quarantined gauge = %d, want 1", got)
	}
	if got := rec.Counter("farm.quarantines").Value(); got != 1 {
		t.Fatalf("quarantines counter = %d, want 1", got)
	}

	// During the cooldown the keeper is told to wait out the rest of it.
	if dial, wait, exit := d.next(a); dial || exit || wait <= 0 || wait > fleetTiming.cooldown {
		t.Fatalf("next during cooldown = (%v, %v, %v), want a wait of at most the cooldown", dial, wait, exit)
	}

	// After the cooldown the keeper's next dial is the half-open probe;
	// once that connection is up, the record wants no second one.
	clk.step(fleetTiming.cooldown)
	if dial, _, _ := d.next(a); !dial {
		t.Fatalf("next refused the half-open probe after the cooldown")
	}
	if got := rec.Counter("farm.health_probes").Value(); got != 1 {
		t.Fatalf("health_probes counter = %d, want 1", got)
	}
	probe := &wconn{wk: a}
	a.conns[probe] = struct{}{}
	if dial, _, _ := d.next(a); dial {
		t.Fatalf("next asked for a second dial while a probe is outstanding")
	}

	// The probe's successful exchange heals the worker: error score
	// forgiven, samples reset so minSamples must re-accumulate.
	d.outcome(a, time.Millisecond, true)
	if !d.allowed(a) {
		t.Fatalf("worker a not allowed after successful probe")
	}
	if got := rec.Gauge("farm.workers_quarantined").Value(); got != 0 {
		t.Fatalf("workers_quarantined gauge = %d after heal, want 0", got)
	}
	if h := healthOf(t, d, "a"); h.State != "healthy" || h.Samples != 0 || h.ErrorRate != 0 {
		t.Fatalf("healed worker = %+v, want healthy with reset error score", h)
	}

	// Three more failures alone must not re-trip the breaker: the
	// post-heal sample count restarts from zero.
	fail(d, a, 2)
	if !d.allowed(a) {
		t.Fatalf("breaker tripped before minSamples re-accumulated after heal")
	}
}

// TestHealthProbeFailureEscalates verifies that a failed half-open
// probe re-quarantines immediately, the cooldown escalates, and the
// quarantined gauge counts the worker once until a probe heals it.
func TestHealthProbeFailureEscalates(t *testing.T) {
	rec := obs.NewRecorder()
	d, clk := newTestHealth([]string{"a"}, rec)
	a := d.workers[0]
	gauge := rec.Gauge("farm.workers_quarantined")

	fail(d, a, 4)
	clk.step(fleetTiming.cooldown)
	if dial, _, _ := d.next(a); !dial {
		t.Fatalf("next not half-open after the cooldown")
	}
	d.outcome(a, 0, false) // probe fails
	if d.allowed(a) {
		t.Fatalf("worker allowed after failed probe")
	}
	if got := rec.Counter("farm.quarantines").Value(); got != 2 {
		t.Fatalf("quarantines counter = %d after failed probe, want 2", got)
	}
	if h := healthOf(t, d, "a"); h.Quarantines != 2 {
		t.Fatalf("worker quarantines = %d, want 2", h.Quarantines)
	}
	if got := gauge.Value(); got != 1 {
		t.Fatalf("workers_quarantined gauge = %d after a failed probe, want 1", got)
	}

	// The second cooldown is twice the first.
	clk.step(fleetTiming.cooldown)
	if dial, _, _ := d.next(a); dial {
		t.Fatalf("next admitted a probe before the escalated cooldown passed")
	}
	clk.step(fleetTiming.cooldown)
	if dial, _, _ := d.next(a); !dial {
		t.Fatalf("next not half-open after the escalated cooldown")
	}
	d.outcome(a, time.Millisecond, true) // probe heals
	if got := gauge.Value(); got != 0 {
		t.Fatalf("workers_quarantined gauge = %d after the worker healed, want 0", got)
	}
}

// TestHealthRecoveringWorkerStaysAllowed: a worker that speeds up is
// not quarantined for it. The breaker once had a straggler cut that
// compared a worker's latency EWMA with a fleet EWMA its own sample had
// just been folded into; it fired on exactly this worker, on its first
// fast sample after twenty slow ones beside a fast peer.
func TestHealthRecoveringWorkerStaysAllowed(t *testing.T) {
	d, _ := newTestHealth([]string{"a", "b"}, obs.NewRecorder())
	a, b := d.workers[0], d.workers[1]
	succeed(d, a, 100*time.Millisecond, 20)
	succeed(d, b, time.Millisecond, 20)
	succeed(d, a, time.Millisecond, 1)
	if !d.allowed(a) {
		t.Fatalf("a recovering worker was quarantined on its first fast sample: %+v", healthOf(t, d, "a"))
	}
}

// TestHealthIntegrityQuarantineIsPermanent verifies that an audit
// mismatch quarantines forever: long after any timed cooldown would
// have expired the keeper is told to exit, and no probe is ever made.
func TestHealthIntegrityQuarantineIsPermanent(t *testing.T) {
	rec := obs.NewRecorder()
	d, clk := newTestHealth([]string{"a"}, rec)
	a := d.workers[0]

	d.integrityFailure(a)
	clk.step(time.Hour) // far past any timed cooldown
	if dial, _, exit := d.next(a); dial || !exit {
		t.Fatalf("next = (dial %v, exit %v) for a permanently quarantined worker, want exit", dial, exit)
	}
	if got := rec.Counter("farm.health_probes").Value(); got != 0 {
		t.Fatalf("permanent quarantine probed anyway (probes=%d)", got)
	}
	if h := healthOf(t, d, "a"); h.State != "quarantined" || !h.Permanent || h.IntegrityFailures != 1 {
		t.Fatalf("worker = %+v, want permanent integrity quarantine", h)
	}
}

// TestFarmHalfOpenProbeRedials: a half-open worker whose probe dial
// fails is dialed again, not wedged. The worker's keeper is its only
// dialer, so it is the probe: no dial while the cooldown runs, one dial
// at a time while half-open and no second connection before the probe's
// exchange heals the worker.
func TestFarmHalfOpenProbeRedials(t *testing.T) {
	const cooldown = 30 * time.Millisecond
	srv := NewServer(ServerOptions{Capacity: 2, DrainTimeout: time.Second})
	defer srv.Shutdown()
	lb := NewLoopback()
	lb.Add("a", srv, Faults{})
	var (
		mu       sync.Mutex
		refuse   bool
		dials    []time.Time
		inFlight int
		overlap  bool
	)
	dial := func(addr string) (net.Conn, error) {
		mu.Lock()
		dials = append(dials, time.Now())
		inFlight++
		overlap = overlap || inFlight > 1
		r := refuse
		mu.Unlock()
		defer func() {
			mu.Lock()
			inFlight--
			mu.Unlock()
		}()
		if r {
			return nil, errors.New("refused")
		}
		return lb.Dial(addr)
	}
	dialCount := func() int {
		mu.Lock()
		defer mu.Unlock()
		return len(dials)
	}
	var d *Dispatcher
	waitFor := func(what string, cond func() bool) {
		t.Helper()
		for giveUp := time.Now().Add(10 * time.Second); !cond(); time.Sleep(time.Millisecond) {
			if time.Now().After(giveUp) {
				t.Fatalf("timed out waiting for %s: %+v", what, healthOf(t, d, "a"))
			}
		}
	}

	rec := obs.NewRecorder()
	opts := testOptions(dial, rec)
	opts.timing.cooldown = cooldown
	opts.timing.heartbeat = 0
	d = New([]string{"a"}, opts)
	defer d.Close()
	waitFor("both slots", func() bool { return healthOf(t, d, "a").Conns == 2 })

	// Refuse every dial, then trip the breaker.
	mu.Lock()
	refuse = true
	before := len(dials)
	mu.Unlock()
	tripped := time.Now()
	for i := 0; i < minSamples; i++ {
		d.score(d.workers[0], 0, false)
	}
	waitFor("two refused probe dials", func() bool { return dialCount() >= before+2 })
	mu.Lock()
	for _, at := range dials[before:] {
		if at.Before(tripped.Add(cooldown)) {
			t.Errorf("dial %v after the quarantine, inside its %v cooldown", at.Sub(tripped), cooldown)
		}
	}
	mu.Unlock()
	if h := healthOf(t, d, "a"); h.State != "probing" || h.Conns != 0 {
		t.Fatalf("worker after refused probe dials = %+v, want probing with no connection", h)
	}

	// Let the probe dial through: one connection, and no further dial
	// until its exchange heals the worker.
	mu.Lock()
	refuse = false
	mu.Unlock()
	waitFor("the probe connection", func() bool { return healthOf(t, d, "a").Conns == 1 })
	probeDials := dialCount()
	time.Sleep(20 * time.Millisecond)
	if n, h := dialCount(), healthOf(t, d, "a"); n != probeDials || h.State != "probing" || h.Conns != 1 {
		t.Fatalf("before the probe's exchange: %d more dials, worker %+v; want none, probing on 1 connection", n-probeDials, h)
	}
	events := iounit.New().Model().Size()
	if err := d.RunChunkInto(sim.RemoteChunk{Unit: iounit.UnitName, Seed: 1, Lo: 0, Hi: 8, Events: events}, coverage.NewCounts(events)); err != nil {
		t.Fatal(err)
	}
	waitFor("the healed worker's second slot", func() bool {
		h := healthOf(t, d, "a")
		return h.State == "healthy" && h.Conns == 2
	})
	if got := rec.Counter("farm.health_probes").Value(); got != 1 {
		t.Fatalf("health_probes = %d, want 1: refused probe dials stay in one half-open", got)
	}
	mu.Lock()
	defer mu.Unlock()
	if overlap {
		t.Fatalf("two dials to one worker overlapped")
	}
}

// TestFarmHealthReportsDownWorker: Health tells a worker no dial
// reaches from an idle one. Beside a live worker, an address with no
// worker behind it reads "down" once a dial to it has failed.
func TestFarmHealthReportsDownWorker(t *testing.T) {
	srv := NewServer(ServerOptions{Capacity: 1, DrainTimeout: time.Second})
	defer srv.Shutdown()
	lb := NewLoopback()
	lb.Add("live", srv, Faults{})
	rec := obs.NewRecorder()
	d := New([]string{"nowhere", "live"}, testOptions(lb.Dial, rec))
	defer d.Close()
	if err := d.WaitReady(10 * time.Second); err != nil {
		t.Fatal(err)
	}
	for giveUp := time.Now().Add(10 * time.Second); rec.Counter("farm.dial_failures").Value() == 0; time.Sleep(time.Millisecond) {
		if time.Now().After(giveUp) {
			t.Fatal("no dial to nowhere failed")
		}
	}
	if h := healthOf(t, d, "nowhere"); h.State != "down" || h.Conns != 0 {
		t.Errorf("nowhere = %+v, want down with no connection", h)
	}
	if h := healthOf(t, d, "live"); h.State != "healthy" {
		t.Errorf("live = %+v, want healthy", h)
	}
}
