package farm

import (
	"math"
	"testing"
	"time"

	"repro/internal/obs"
)

// testClock is a manual clock for healthSet.now: a cooldown passes when
// the test steps the clock, not when the wall clock does.
type testClock struct{ t time.Time }

func (c *testClock) now() time.Time         { return c.t }
func (c *testClock) step(dur time.Duration) { c.t = c.t.Add(dur) }

// newTestHealth builds a healthSet over the given worker addresses on a
// manual clock.
func newTestHealth(addrs []string, b breaker, rec *obs.Recorder) (*healthSet, *testClock) {
	clk := &testClock{t: time.Unix(0, 0)}
	hs := newHealthSet(b, addrs, rec, nil)
	hs.now = clk.now
	return hs, clk
}

// fail scores n failed exchanges against addr.
func fail(hs *healthSet, addr string, n int) {
	for i := 0; i < n; i++ {
		hs.outcome(addr, 0, false)
	}
}

// succeed scores n successful exchanges of the given latency.
func succeed(hs *healthSet, addr string, dur time.Duration, n int) {
	for i := 0; i < n; i++ {
		hs.outcome(addr, dur, true)
	}
}

// TestHealthErrorQuarantineAndHeal walks the breaker through its full
// cycle: error-rate quarantine, the gate refusing dials during the
// cooldown, half-open admitting exactly one probe, and a successful
// probe healing the worker with its sample count reset.
func TestHealthErrorQuarantineAndHeal(t *testing.T) {
	rec := obs.NewRecorder()
	hs, clk := newTestHealth([]string{"a", "b"}, breaker{}, rec)

	// Four straight failures push errEWMA to 1-0.7^4 ≈ 0.76 > 0.5 with
	// samples == minSamples, so the breaker opens on the fourth.
	fail(hs, "a", 4)
	if hs.allowed("a") {
		t.Fatalf("worker a still allowed after 4/4 failed exchanges")
	}
	if got := rec.Gauge("farm.workers_quarantined").Value(); got != 1 {
		t.Fatalf("workers_quarantined gauge = %d, want 1", got)
	}
	if got := rec.Counter("farm.quarantines").Value(); got != 1 {
		t.Fatalf("quarantines counter = %d, want 1", got)
	}

	// During the cooldown the gate refuses with a bounded poll interval.
	if ok, wait := hs.gate("a"); ok || wait <= 0 || wait > 250*time.Millisecond {
		t.Fatalf("gate during cooldown = (%v, %v), want refused with bounded wait", ok, wait)
	}

	// After the cooldown the first gate call becomes the half-open
	// probe; a second concurrent caller is refused until it resolves.
	clk.step(baseCooldown)
	if ok, _ := hs.gate("a"); !ok {
		t.Fatalf("gate refused the half-open probe after the cooldown")
	}
	if got := rec.Counter("farm.health_probes").Value(); got != 1 {
		t.Fatalf("health_probes counter = %d, want 1", got)
	}
	if ok, _ := hs.gate("a"); ok {
		t.Fatalf("gate admitted a second caller while a probe is outstanding")
	}

	// The probe's successful exchange heals the worker: error score
	// forgiven, samples reset so minSamples must re-accumulate.
	hs.outcome("a", time.Millisecond, true)
	if !hs.allowed("a") {
		t.Fatalf("worker a not allowed after successful probe")
	}
	if got := rec.Gauge("farm.workers_quarantined").Value(); got != 0 {
		t.Fatalf("workers_quarantined gauge = %d after heal, want 0", got)
	}
	var h WorkerHealth
	for _, w := range hs.snapshot() {
		if w.Addr == "a" {
			h = w
		}
	}
	if h.State != "healthy" || h.Samples != 0 || h.ErrorRate != 0 {
		t.Fatalf("healed worker = %+v, want healthy with reset error score", h)
	}

	// Three more failures alone must not re-trip the breaker: the
	// post-heal sample count restarts from zero.
	fail(hs, "a", 2)
	if !hs.allowed("a") {
		t.Fatalf("breaker tripped before minSamples re-accumulated after heal")
	}
}

// TestHealthProbeFailureEscalates verifies that a failed half-open
// probe re-quarantines immediately, the cooldown escalates, and the
// quarantined gauge counts the worker once until a probe heals it.
func TestHealthProbeFailureEscalates(t *testing.T) {
	rec := obs.NewRecorder()
	hs, clk := newTestHealth([]string{"a"}, breaker{}, rec)
	gauge := rec.Gauge("farm.workers_quarantined")

	fail(hs, "a", 4)
	clk.step(baseCooldown)
	if ok, _ := hs.gate("a"); !ok {
		t.Fatalf("gate not half-open after the cooldown")
	}
	hs.outcome("a", 0, false) // probe fails
	if hs.allowed("a") {
		t.Fatalf("worker allowed after failed probe")
	}
	if got := rec.Counter("farm.quarantines").Value(); got != 2 {
		t.Fatalf("quarantines counter = %d after failed probe, want 2", got)
	}
	var h WorkerHealth
	for _, w := range hs.snapshot() {
		if w.Addr == "a" {
			h = w
		}
	}
	if h.Quarantines != 2 {
		t.Fatalf("worker quarantines = %d, want 2", h.Quarantines)
	}
	if got := gauge.Value(); got != 1 {
		t.Fatalf("workers_quarantined gauge = %d after a failed probe, want 1", got)
	}

	// The second cooldown is twice the first.
	clk.step(baseCooldown)
	if ok, _ := hs.gate("a"); ok {
		t.Fatalf("gate admitted a probe before the escalated cooldown passed")
	}
	clk.step(baseCooldown)
	if ok, _ := hs.gate("a"); !ok {
		t.Fatalf("gate not half-open after the escalated cooldown")
	}
	hs.outcome("a", time.Millisecond, true) // probe heals
	if got := gauge.Value(); got != 0 {
		t.Fatalf("workers_quarantined gauge = %d after the worker healed, want 0", got)
	}
}

// TestHealthDialFailedReleasesProbe verifies that a probe whose dial
// itself fails releases the half-open token for the next caller
// instead of wedging the worker in probing forever.
func TestHealthDialFailedReleasesProbe(t *testing.T) {
	hs, clk := newTestHealth([]string{"a"}, breaker{}, obs.NewRecorder())
	fail(hs, "a", 4)
	clk.step(baseCooldown)
	if ok, _ := hs.gate("a"); !ok {
		t.Fatalf("gate not half-open after the cooldown")
	}
	if ok, _ := hs.gate("a"); ok {
		t.Fatalf("second caller admitted while probe dial outstanding")
	}
	hs.dialFailed("a")
	if ok, _ := hs.gate("a"); !ok {
		t.Fatalf("probe token not released after dial failure")
	}
}

// TestHealthLatencyQuarantineNeedsPeers verifies the straggler cut:
// it must never fire while the slow worker is the only one with
// samples (a single-worker fleet cannot be its own baseline), and it
// fires once a faster peer has scored.
func TestHealthLatencyQuarantineNeedsPeers(t *testing.T) {
	rec := obs.NewRecorder()
	// A latency factor of 0.1 makes the latency condition trivially true for
	// any sampled worker — isolating the othersSampled guard.
	hs, _ := newTestHealth([]string{"a", "b"}, breaker{latencyFactor: 0.1}, rec)

	succeed(hs, "a", 10*time.Millisecond, 6)
	if !hs.allowed("a") {
		t.Fatalf("straggler cut fired with no peer samples")
	}

	succeed(hs, "b", time.Millisecond, 1)
	succeed(hs, "a", 10*time.Millisecond, 1)
	if hs.allowed("a") {
		t.Fatalf("straggler cut did not fire once a peer had samples")
	}
}

// TestHealthIntegrityQuarantineIsPermanent verifies that an audit
// mismatch quarantines forever: the gate keeps refusing long after any
// timed cooldown would have expired, and no probe is ever admitted.
func TestHealthIntegrityQuarantineIsPermanent(t *testing.T) {
	rec := obs.NewRecorder()
	hs, clk := newTestHealth([]string{"a"}, breaker{}, rec)

	hs.integrityFailure("a")
	if got := rec.Counter("farm.integrity_failures").Value(); got != 1 {
		t.Fatalf("integrity_failures counter = %d, want 1", got)
	}
	clk.step(time.Hour) // far past any timed cooldown
	if ok, _ := hs.gate("a"); ok {
		t.Fatalf("gate admitted a permanently quarantined worker")
	}
	if got := rec.Counter("farm.health_probes").Value(); got != 0 {
		t.Fatalf("permanent quarantine probed anyway (probes=%d)", got)
	}
	var h WorkerHealth
	for _, w := range hs.snapshot() {
		if w.Addr == "a" {
			h = w
		}
	}
	if h.State != "quarantined" || !h.Permanent || h.IntegrityFailures != 1 {
		t.Fatalf("worker = %+v, want permanent integrity quarantine", h)
	}
}

// TestHealthBetterOrdering verifies the hedging path's lane-selection
// order: fewer errors first, then lower latency.
func TestHealthBetterOrdering(t *testing.T) {
	hs, _ := newTestHealth([]string{"a", "b", "c"}, breaker{}, obs.NewRecorder())
	fail(hs, "a", 1)
	succeed(hs, "b", 10*time.Millisecond, 1)
	succeed(hs, "c", time.Millisecond, 1)

	if !hs.better("b", "a") || hs.better("a", "b") {
		t.Fatalf("error-free worker should beat erroring worker")
	}
	if !hs.better("c", "b") || hs.better("b", "c") {
		t.Fatalf("lower-latency worker should beat slower one at equal error rate")
	}
}

// TestHealthLatencyP95Warmup verifies that the hedging percentile stays
// 0 until 16 samples exist, then reflects the tail of the ring.
func TestHealthLatencyP95Warmup(t *testing.T) {
	hs, _ := newTestHealth([]string{"a"}, breaker{}, obs.NewRecorder())
	succeed(hs, "a", time.Millisecond, 15)
	if got := hs.latencyP95(); got != 0 {
		t.Fatalf("latencyP95 = %v with 15 samples, want 0 during warmup", got)
	}
	succeed(hs, "a", 100*time.Millisecond, 1)
	if got := hs.latencyP95(); got != 100*time.Millisecond {
		t.Fatalf("latencyP95 = %v, want the 100ms tail sample", got)
	}
}

// TestHedgeBudget: Hedge × the fleet's p95, floored at 1ms; a product
// beyond time.Duration saturates rather than wrapping to the floor.
func TestHedgeBudget(t *testing.T) {
	hs, _ := newTestHealth([]string{"a"}, breaker{}, nil)
	succeed(hs, "a", 3*time.Millisecond, 16)
	for _, tc := range []struct {
		hedge float64
		want  time.Duration
	}{
		{0, 0},
		{2, 6 * time.Millisecond},
		{1e-6, time.Millisecond},
		{1e6, 3000 * time.Second},
		{1e30, math.MaxInt64},
	} {
		d := &Dispatcher{opts: Options{Hedge: tc.hedge}, health: hs}
		if got := d.hedgeBudget(); got != tc.want {
			t.Errorf("hedge %v at a 3ms p95: budget %v, want %v", tc.hedge, got, tc.want)
		}
	}
}
