package farm

import (
	"cmp"
	"log/slog"
	"slices"
	"sync"
	"time"

	"repro/internal/obs"
)

// The circuit breaker's tuning (DESIGN.md §13). After minSamples
// exchange outcomes, a worker is quarantined once its error-rate EWMA
// exceeds errorThreshold, or its latency EWMA exceeds latencyFactor ×
// the fleet-wide EWMA while another worker has samples (so a
// single-worker fleet is never its own baseline). The first quarantine
// lasts baseCooldown and each further one doubles it, up to 8×; then one
// probe connection goes through (half-open), and its first exchange
// heals the worker or re-quarantines it. Integrity failures (audit
// mismatches) quarantine permanently. alpha smooths every EWMA.
const (
	errorThreshold = 0.5
	latencyFactor  = 6
	minSamples     = 4
	baseCooldown   = 5 * time.Second
	alpha          = 0.3
)

// breaker overrides the cooldown and latency factor (zero fields keep
// the constants). Only in-package tests set it, through Options.breaker:
// fault schedules shorten the cooldown, and hedging tests disarm the
// straggler cut so the straggler stays routable.
type breaker struct {
	cooldown      time.Duration
	latencyFactor float64
}

// Worker health states.
const (
	healthHealthy     = "healthy"
	healthQuarantined = "quarantined"
	healthProbing     = "probing"
)

// WorkerHealth is one worker's externally visible health snapshot — the
// shape GET /v1/scheduler serves in its "farm" section.
type WorkerHealth struct {
	Addr  string `json:"addr"`
	State string `json:"state"`
	// Permanent marks an integrity quarantine: the worker returned a
	// provably wrong result and is never probed again.
	Permanent bool `json:"permanent,omitempty"`
	// LatencyMs is the EWMA of successful exchange latencies.
	LatencyMs float64 `json:"latency_ms"`
	// ErrorRate is the EWMA of exchange failures in [0, 1].
	ErrorRate float64 `json:"error_rate"`
	// Samples counts scored exchange outcomes.
	Samples int `json:"samples"`
	// IntegrityFailures counts audit mismatches.
	IntegrityFailures int `json:"integrity_failures,omitempty"`
	// Quarantines counts how often the breaker opened for this worker.
	Quarantines int `json:"quarantines,omitempty"`
	// Conns is the worker's current live connection count.
	Conns int `json:"conns"`
}

// workerHealth is one worker's scorecard. Guarded by healthSet.mu.
type workerHealth struct {
	addr        string
	state       string
	permanent   bool
	until       time.Time     // quarantine expiry (ignored when permanent)
	cooldown    time.Duration // next quarantine's duration (escalates)
	probing     bool          // a half-open probe dial is outstanding
	latEWMA     float64       // ns, successful exchanges only
	errEWMA     float64
	samples     int
	integrity   int
	quarantines int
	conns       map[*wconn]struct{}
}

// healthSet scores every worker's exchanges and runs the circuit
// breaker. Every worker address is registered at construction.
type healthSet struct {
	b   breaker
	log *slog.Logger
	now func() time.Time // the breaker's clock; tests step a fake one

	gQuarantined *obs.Gauge   // farm.workers_quarantined: not healthy
	cQuarantines *obs.Counter // farm.quarantines: total breaker opens
	cIntegrity   *obs.Counter // farm.integrity_failures
	cProbes      *obs.Counter // farm.health_probes

	mu      sync.Mutex
	workers map[string]*workerHealth
	// lats is a ring of recent successful exchange latencies (ns),
	// fleet-wide — the percentile source for the hedging budget.
	lats     [128]uint64
	latPos   int
	latCount int
	fleetLat float64 // ns, EWMA across all workers
}

func newHealthSet(b breaker, addrs []string, rec *obs.Recorder, log *slog.Logger) *healthSet {
	if b.cooldown <= 0 {
		b.cooldown = baseCooldown
	}
	if b.latencyFactor <= 0 {
		b.latencyFactor = latencyFactor
	}
	hs := &healthSet{
		b:       b,
		log:     obs.OrNop(log),
		now:     time.Now,
		workers: make(map[string]*workerHealth, len(addrs)),
	}
	if rec != nil {
		hs.gQuarantined = rec.Gauge("farm.workers_quarantined")
		hs.cQuarantines = rec.Counter("farm.quarantines")
		hs.cIntegrity = rec.Counter("farm.integrity_failures")
		hs.cProbes = rec.Counter("farm.health_probes")
	}
	for _, addr := range addrs {
		hs.workers[addr] = &workerHealth{
			addr:     addr,
			state:    healthHealthy,
			cooldown: b.cooldown,
			conns:    map[*wconn]struct{}{},
		}
	}
	return hs
}

// attach registers a live connection with its worker's scorecard.
func (hs *healthSet) attach(addr string, w *wconn) {
	hs.mu.Lock()
	hs.workers[addr].conns[w] = struct{}{}
	hs.mu.Unlock()
}

// detach removes an evicted connection.
func (hs *healthSet) detach(addr string, w *wconn) {
	hs.mu.Lock()
	delete(hs.workers[addr].conns, w)
	hs.mu.Unlock()
}

// allowed reports whether chunks may be routed to the worker right now.
func (hs *healthSet) allowed(addr string) bool {
	hs.mu.Lock()
	defer hs.mu.Unlock()
	return hs.workers[addr].state != healthQuarantined
}

// gate decides whether a keeper may dial its worker now. While the
// worker is quarantined it returns (false, pollInterval); when a timed
// quarantine has expired it flips to half-open and admits exactly one
// prober (the caller), refusing other slots until the probe resolves.
func (hs *healthSet) gate(addr string) (bool, time.Duration) {
	hs.mu.Lock()
	defer hs.mu.Unlock()
	h := hs.workers[addr]
	switch h.state {
	case healthHealthy:
		return true, 0
	case healthQuarantined:
		if h.permanent {
			return false, 500 * time.Millisecond
		}
		if wait := h.until.Sub(hs.now()); wait > 0 {
			return false, min(wait, 250*time.Millisecond)
		}
		// Cooldown over: half-open. This caller becomes the probe.
		h.state = healthProbing
		h.probing = true
		hs.cProbes.Inc()
		hs.log.Info("farm: worker half-open, probing", "worker", addr, "quarantines", h.quarantines)
		return true, 0
	default: // probing
		if h.probing {
			return false, 100 * time.Millisecond
		}
		h.probing = true
		return true, 0
	}
}

// dialFailed releases the half-open probe token when the probe's dial
// itself failed, so another keeper (or a retry) can take it. Dial
// failures deliberately do not feed error scoring: a worker that is
// down just keeps its keepers in redial backoff, which the breaker
// would only slow down.
func (hs *healthSet) dialFailed(addr string) {
	hs.mu.Lock()
	if h := hs.workers[addr]; h.state == healthProbing {
		h.probing = false
	}
	hs.mu.Unlock()
}

// outcome scores one exchange (dur meaningful only when ok) and runs
// the breaker. It returns the connections to evict when the breaker
// opened — the caller kills them outside the lock.
func (hs *healthSet) outcome(addr string, dur time.Duration, ok bool) []*wconn {
	hs.mu.Lock()
	defer hs.mu.Unlock()
	h := hs.workers[addr]
	h.samples++
	if ok {
		h.errEWMA *= 1 - alpha
		h.latEWMA = alpha*float64(dur) + (1-alpha)*h.latEWMA
		if hs.fleetLat == 0 {
			hs.fleetLat = float64(dur)
		} else {
			hs.fleetLat = alpha*float64(dur) + (1-alpha)*hs.fleetLat
		}
		hs.lats[hs.latPos] = uint64(dur)
		hs.latPos = (hs.latPos + 1) % len(hs.lats)
		if hs.latCount < len(hs.lats) {
			hs.latCount++
		}
	} else {
		h.errEWMA = alpha + (1-alpha)*h.errEWMA
	}

	switch h.state {
	case healthProbing:
		h.probing = false
		if ok {
			hs.heal(h)
			return nil
		}
		return hs.quarantine(h, "probe failed", false)
	case healthHealthy:
		if h.samples < minSamples {
			return nil
		}
		if h.errEWMA > errorThreshold {
			return hs.quarantine(h, "error rate", false)
		}
		if h.latEWMA > hs.b.latencyFactor*hs.fleetLat && hs.othersSampled(h) {
			return hs.quarantine(h, "straggling", false)
		}
	}
	return nil
}

// integrityFailure records an audit mismatch: the worker returned a
// provably wrong result, so it is quarantined permanently (no half-open
// probing — a byzantine worker does not get better by waiting). Returns
// the connections to evict.
func (hs *healthSet) integrityFailure(addr string) []*wconn {
	hs.mu.Lock()
	defer hs.mu.Unlock()
	h := hs.workers[addr]
	h.integrity++
	hs.cIntegrity.Inc()
	return hs.quarantine(h, "integrity failure", true)
}

// othersSampled reports whether any other worker has scored samples —
// the guard that keeps a single-worker fleet from being its own
// latency baseline. Caller holds hs.mu.
func (hs *healthSet) othersSampled(h *workerHealth) bool {
	for _, o := range hs.workers {
		if o != h && o.samples > 0 {
			return true
		}
	}
	return false
}

// quarantine opens the breaker. The quarantined gauge counts a worker
// once, from leaving healthy until heal, so a failed half-open probe
// does not count it again. Caller holds hs.mu; the returned connections
// must be killed after release.
func (hs *healthSet) quarantine(h *workerHealth, reason string, permanent bool) []*wconn {
	if h.state == healthQuarantined {
		if permanent {
			h.permanent = true
		}
		return nil
	}
	if h.state == healthHealthy {
		hs.gQuarantined.Add(1)
	}
	h.state = healthQuarantined
	h.probing = false
	h.permanent = h.permanent || permanent
	h.quarantines++
	h.until = hs.now().Add(h.cooldown)
	if next := h.cooldown * 2; next <= 8*hs.b.cooldown {
		h.cooldown = next
	}
	hs.cQuarantines.Inc()
	hs.log.Warn("farm: worker quarantined",
		"worker", h.addr, "reason", reason, "permanent", h.permanent,
		"error_rate", h.errEWMA, "latency_ms", h.latEWMA/1e6,
		"samples", h.samples, "quarantines", h.quarantines)
	victims := make([]*wconn, 0, len(h.conns))
	for w := range h.conns {
		victims = append(victims, w)
	}
	return victims
}

// heal closes the breaker after a successful probe. The error score is
// forgiven and samples reset so minSamples must re-accumulate before
// the breaker can trip again; latency memory is kept. Caller holds
// hs.mu.
func (hs *healthSet) heal(h *workerHealth) {
	h.state = healthHealthy
	h.errEWMA = 0
	h.samples = 0
	hs.gQuarantined.Add(-1)
	hs.log.Info("farm: worker healed", "worker", h.addr, "quarantines", h.quarantines)
}

// better reports whether worker a is currently healthier than b — the
// hedging path's lane-selection order (fewer errors, then lower
// latency).
func (hs *healthSet) better(a, b string) bool {
	hs.mu.Lock()
	defer hs.mu.Unlock()
	ha, hb := hs.workers[a], hs.workers[b]
	if ha.errEWMA != hb.errEWMA {
		return ha.errEWMA < hb.errEWMA
	}
	return ha.latEWMA < hb.latEWMA
}

// latencyP95 estimates the 95th-percentile exchange latency from the
// recent-latency ring, or 0 until at least 16 samples exist (hedging
// stays off during warmup rather than hedging on noise).
func (hs *healthSet) latencyP95() time.Duration {
	hs.mu.Lock()
	defer hs.mu.Unlock()
	if hs.latCount < 16 {
		return 0
	}
	buf := make([]uint64, hs.latCount)
	copy(buf, hs.lats[:hs.latCount])
	slices.Sort(buf)
	return time.Duration(buf[(len(buf)*95)/100])
}

// snapshot returns every worker's externally visible health, sorted by
// address.
func (hs *healthSet) snapshot() []WorkerHealth {
	hs.mu.Lock()
	defer hs.mu.Unlock()
	out := make([]WorkerHealth, 0, len(hs.workers))
	for _, h := range hs.workers {
		out = append(out, WorkerHealth{
			Addr:              h.addr,
			State:             h.state,
			Permanent:         h.permanent,
			LatencyMs:         h.latEWMA / 1e6,
			ErrorRate:         h.errEWMA,
			Samples:           h.samples,
			IntegrityFailures: h.integrity,
			Quarantines:       h.quarantines,
			Conns:             len(h.conns),
		})
	}
	slices.SortFunc(out, func(a, b WorkerHealth) int { return cmp.Compare(a.Addr, b.Addr) })
	return out
}
