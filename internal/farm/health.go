package farm

import (
	"cmp"
	"slices"
	"time"

	"repro/internal/obs"
)

// The circuit breaker's tuning (DESIGN.md §13). After minSamples
// exchange outcomes, a worker is quarantined once its error-rate EWMA
// exceeds errorThreshold. The first quarantine lasts timing.cooldown
// and each further one doubles it, up to 8×; then the worker's keeper
// dials one probe connection (half-open), and its first exchange heals
// the worker or re-quarantines it. Integrity failures (audit
// mismatches) quarantine permanently. alpha smooths both EWMAs; the
// latency EWMA is reported, not judged.
const (
	errorThreshold = 0.5
	minSamples     = 4
	alpha          = 0.3
)

// Worker health states. down is a report, not a breaker state: a
// healthy worker with no live connection whose latest dial failed.
const (
	healthHealthy     = "healthy"
	healthQuarantined = "quarantined"
	healthProbing     = "probing"
	healthDown        = "down"
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

// worker is one worker address's record, built by New. The address,
// trace lane, gauge and wake channel never change; everything else is
// guarded by Dispatcher.mu.
type worker struct {
	addr  string
	idx   int           // trace lane 200+idx
	gauge *obs.Gauge    // farm.conns{peer}
	wake  chan struct{} // cap 1: an eviction, heal or quarantine pokes the keeper

	conns     map[*wconn]struct{}
	capacity  int // advertised in the latest welcome; 1 before the first
	dialFails int // consecutive failed dials, reset by a handshake

	// The breaker scorecard.
	state       string
	permanent   bool
	until       time.Time     // quarantine expiry (ignored when permanent)
	cooldown    time.Duration // next quarantine's duration (escalates)
	latEWMA     float64       // ns, successful exchanges only
	errEWMA     float64
	samples     int
	integrity   int
	quarantines int
}

// poke wakes the worker's keeper. The keeper re-reads the whole record
// on every wake, so a wake coalesced into the one buffered token loses
// nothing.
func (wk *worker) poke() {
	select {
	case wk.wake <- struct{}{}:
	default:
	}
}

// next tells the worker's keeper what the record wants: dial one
// connection now, or wait until poked (or until wait passes, when
// positive), or exit — a permanent quarantine is never probed. A timed
// quarantine whose cooldown has passed turns half-open here, so the
// keeper's next dial is the probe. A half-open worker wants one
// connection, a healthy one min(capacity, MaxConnsPerWorker).
func (d *Dispatcher) next(wk *worker) (dial bool, wait time.Duration, exit bool) {
	d.mu.Lock()
	defer d.mu.Unlock()
	want := min(wk.capacity, d.opts.MaxConnsPerWorker)
	switch wk.state {
	case healthQuarantined:
		if wk.permanent {
			return false, 0, true
		}
		if wait := wk.until.Sub(d.now()); wait > 0 {
			return false, wait, false
		}
		wk.state = healthProbing
		d.cProbes.Inc()
		d.log.Info("farm: worker half-open, probing", "worker", wk.addr, "quarantines", wk.quarantines)
		want = 1
	case healthProbing:
		want = 1
	}
	return len(wk.conns) < want, 0, false
}

// allowed reports whether chunks may be routed to the worker right now.
func (d *Dispatcher) allowed(wk *worker) bool {
	d.mu.Lock()
	defer d.mu.Unlock()
	return wk.state != healthQuarantined
}

// outcome scores one exchange (dur meaningful only when ok) and runs
// the breaker. It returns the connections to evict when the breaker
// opened — the caller kills them outside the lock.
func (d *Dispatcher) outcome(wk *worker, dur time.Duration, ok bool) []*wconn {
	d.mu.Lock()
	defer d.mu.Unlock()
	wk.samples++
	if ok {
		wk.errEWMA *= 1 - alpha
		wk.latEWMA = float64(alpha*float64(dur)) + float64((1-alpha)*wk.latEWMA)
	} else {
		wk.errEWMA = alpha + float64((1-alpha)*wk.errEWMA)
	}
	switch {
	case wk.state == healthProbing && ok:
		d.heal(wk)
	case wk.state == healthProbing:
		return d.quarantine(wk, "probe failed", false)
	case wk.state == healthHealthy && wk.samples >= minSamples && wk.errEWMA > errorThreshold:
		return d.quarantine(wk, "error rate", false)
	}
	return nil
}

// integrityFailure records an audit mismatch: the worker returned a
// provably wrong result, so it is quarantined permanently (no half-open
// probing — a byzantine worker does not get better by waiting). Returns
// the connections to evict.
func (d *Dispatcher) integrityFailure(wk *worker) []*wconn {
	d.mu.Lock()
	defer d.mu.Unlock()
	wk.integrity++ // the fleet-wide count is the dispatcher's farm.audit_mismatches
	return d.quarantine(wk, "integrity failure", true)
}

// quarantine opens the breaker. The quarantined gauge counts a worker
// once, from leaving healthy until heal, so a failed half-open probe
// does not count it again. Caller holds d.mu; the returned connections
// must be killed after release.
func (d *Dispatcher) quarantine(wk *worker, reason string, permanent bool) []*wconn {
	defer wk.poke()
	if wk.state == healthQuarantined {
		wk.permanent = wk.permanent || permanent
		return nil
	}
	if wk.state == healthHealthy {
		d.gQuarantined.Add(1)
	}
	wk.state = healthQuarantined
	wk.permanent = wk.permanent || permanent
	wk.quarantines++
	wk.until = d.now().Add(wk.cooldown)
	if next := wk.cooldown * 2; next <= 8*d.opts.timing.cooldown {
		wk.cooldown = next
	}
	d.cQuarantines.Inc()
	d.log.Warn("farm: worker quarantined",
		"worker", wk.addr, "reason", reason, "permanent", wk.permanent,
		"error_rate", wk.errEWMA, "latency_ms", wk.latEWMA/1e6,
		"samples", wk.samples, "quarantines", wk.quarantines)
	victims := make([]*wconn, 0, len(wk.conns))
	for w := range wk.conns {
		victims = append(victims, w)
	}
	return victims
}

// heal closes the breaker after a successful probe. The error score is
// forgiven and samples reset so minSamples must re-accumulate before
// the breaker can trip again; latency memory is kept. The keeper is
// poked to open the worker's remaining slots. Caller holds d.mu.
func (d *Dispatcher) heal(wk *worker) {
	wk.state = healthHealthy
	wk.errEWMA = 0
	wk.samples = 0
	d.gQuarantined.Add(-1)
	d.log.Info("farm: worker healed", "worker", wk.addr, "quarantines", wk.quarantines)
	wk.poke()
}

// Health returns a point-in-time snapshot of every worker's health
// score and quarantine state, sorted by address — the farm section of
// GET /v1/scheduler.
func (d *Dispatcher) Health() []WorkerHealth {
	d.mu.Lock()
	defer d.mu.Unlock()
	out := make([]WorkerHealth, 0, len(d.workers))
	for _, wk := range d.workers {
		state := wk.state
		if state == healthHealthy && len(wk.conns) == 0 && wk.dialFails > 0 {
			state = healthDown
		}
		out = append(out, WorkerHealth{
			Addr:              wk.addr,
			State:             state,
			Permanent:         wk.permanent,
			LatencyMs:         wk.latEWMA / 1e6,
			ErrorRate:         wk.errEWMA,
			Samples:           wk.samples,
			IntegrityFailures: wk.integrity,
			Quarantines:       wk.quarantines,
			Conns:             len(wk.conns),
		})
	}
	slices.SortFunc(out, func(a, b WorkerHealth) int { return cmp.Compare(a.Addr, b.Addr) })
	return out
}
