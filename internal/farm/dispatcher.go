package farm

import (
	"encoding/binary"
	"errors"
	"fmt"
	"hash/fnv"
	"log/slog"
	"math/rand"
	"net"
	"slices"
	"sync"
	"sync/atomic"
	"time"

	"repro/internal/buildinfo"
	"repro/internal/coverage"
	"repro/internal/obs"
	"repro/internal/sim"
)

// Dispatcher errors.
var (
	// ErrNoWorkers reports that no remote connection is established,
	// or that none came free in time. The scheduler treats it like any
	// runner failure: the chunk runs locally, so a dead or absent fleet
	// degrades throughput, never results.
	ErrNoWorkers = errors.New("farm: no remote workers available")
	// ErrDispatcherClosed reports a RunChunkInto after Close.
	ErrDispatcherClosed = errors.New("farm: dispatcher is closed")
)

// timing is the dispatcher's clock and retry budget.
type timing struct {
	chunk     time.Duration // deadline of one exchange attempt or handshake
	acquire   time.Duration // wait for an idle connection, while one is established, before the local fallback
	attempts  int           // connections a chunk tries before the local fallback
	heartbeat time.Duration // idle-connection ping interval and deadline; <= 0 disables
	// backoffBase doubles per failed attempt or redial, up to backoffMax,
	// and every step is jittered by ± jitter of itself (0 disables).
	backoffBase, backoffMax time.Duration
	jitter                  float64
	cooldown                time.Duration // a worker's first quarantine; doubles per repeat, up to 8×
}

// fleetTiming is the timing every fleet runs (DESIGN.md §9). No option
// sets it; in-package tests replace it through Options.timing so fault
// scenarios resolve in milliseconds.
var fleetTiming = timing{
	chunk:       60 * time.Second,
	acquire:     2 * time.Second,
	attempts:    3,
	heartbeat:   5 * time.Second,
	backoffBase: 50 * time.Millisecond,
	backoffMax:  2 * time.Second,
	jitter:      0.25,
	cooldown:    5 * time.Second,
}

// Options tune the dispatcher. The zero value gives sane defaults.
type Options struct {
	// MaxConnsPerWorker caps connections per address; the effective
	// count is min(cap, worker's advertised capacity). <= 0: 8.
	MaxConnsPerWorker int
	// AuditFraction, in [0, 1], samples this fraction of successful
	// remote results for an integrity audit: the chunk is re-executed
	// locally (chunks are deterministic functions of their seed and
	// range) and the two digests cross-checked. A mismatch merges the
	// local ground truth, discards the remote result, and quarantines
	// the worker permanently. 0 disables; the -audit-fraction flag.
	AuditFraction float64
	// Dial opens a transport to a worker address. nil: TCP. The
	// fault-injection loopback substitutes its own.
	Dial func(addr string) (net.Conn, error)
	// Rec receives dispatcher metrics and per-worker trace lanes (nil
	// disables).
	Rec *obs.Recorder
	// Log receives structured connection-lifecycle and failure events
	// with correlated fields (worker, chunk). nil discards.
	Log *slog.Logger
	// timing replaces fleetTiming for in-package tests. The zero timing
	// selects fleetTiming.
	timing timing
}

func (o *Options) setDefaults() {
	if o.timing == (timing{}) {
		o.timing = fleetTiming
	}
	if o.MaxConnsPerWorker <= 0 {
		o.MaxConnsPerWorker = 8
	}
	if o.Dial == nil {
		o.Dial = func(addr string) (net.Conn, error) {
			return net.DialTimeout("tcp", addr, 5*time.Second)
		}
	}
}

// Validate reports an AuditFraction outside [0, 1], which the
// dispatcher would turn into other behaviour than it names.
func (o *Options) Validate() error {
	if !(o.AuditFraction >= 0 && o.AuditFraction <= 1) { // NaN fails both
		return fmt.Errorf("farm: audit fraction %v: want a fraction in [0, 1]", o.AuditFraction)
	}
	return nil
}

// Dispatcher hands scheduler chunks to a fleet of farm workers. It
// implements sim.ChunkRunner, so it plugs into a simulation environment
// with Env.AttachRunner(d, d.Lanes()); the scheduler's remote lanes and
// local workers then pull from one queue, mixing local and remote
// execution freely.
//
// Per worker address the dispatcher keeps one record (health.go) and
// one keeper goroutine, the worker's only dialer: it opens the worker's
// connection slots (one in-flight chunk each) and, whenever one dies,
// redials with exponential backoff, so workers may crash and rejoin at
// any time. Failed exchanges are retried on other connections with
// backoff and jitter, and the chunk is abandoned to the scheduler's
// local fallback once its attempts run out; combined with the
// scheduler's exactly-once merge, a chunk is never lost and never
// double-counted, whatever the failure pattern.
//
// Beyond crash failures, the dispatcher defends against workers that
// are flappy or wrong: every exchange outcome feeds a per-worker health
// score whose circuit breaker quarantines erroring workers (health.go),
// and sampled results can be audited against local ground truth
// (AuditFraction) — a provably wrong worker is quarantined permanently.
// A slow worker is only reported: pull scheduling hands it fewer
// chunks, and the chunk deadline bounds a hung one.
type Dispatcher struct {
	opts Options
	idle chan *wconn

	closed   chan struct{}
	stop     sync.Once
	wg       sync.WaitGroup
	ready    chan struct{} // closed on the first successful handshake
	readyOne sync.Once
	live     atomic.Int64 // established, un-evicted connections

	log *slog.Logger
	now func() time.Time // the breaker's clock; tests step a fake one

	mu      sync.Mutex // guards every worker record's mutable fields
	workers []*worker  // one per address, in address-list order

	// Audit state: a sampling RNG plus the local executor a worker runs
	// chunks on, shared by every auditing lane under auditMu. Audits are
	// sampled, so the serialization is off the common path.
	auditMu  sync.Mutex
	auditRng *rand.Rand
	local    *unitEnvs

	// Metric handles (all nil-safe).
	mDials      *obs.Counter
	mDialFails  *obs.Counter
	mChunks     *obs.Counter
	mErrors     *obs.Counter
	mRetries    *obs.Counter
	mEvicts     *obs.Counter
	mInflight   *obs.Gauge
	mAudits     *obs.Counter
	mMismatches *obs.Counter
	hRPCNs      *obs.Histogram
	tracer      *obs.Tracer
	// The breaker's: farm.workers_quarantined counts workers not
	// healthy, farm.quarantines breaker opens.
	gQuarantined *obs.Gauge
	cQuarantines *obs.Counter
	cProbes      *obs.Counter
}

// wconn is one live worker connection. It is owned by exactly one
// goroutine at a time — a scheduler lane mid-exchange, the heartbeater
// mid-ping, or the idle pool — so frames on it never interleave.
type wconn struct {
	wk     *worker
	conn   net.Conn
	nextID uint64
	dead   atomic.Bool

	// cdc's grow-once buffers plus the reusable read frame rf (whose
	// Hits capacity is retained across results) make the steady-state
	// exchange path allocation-free.
	cdc codec
	rf  Frame
}

// New starts a dispatcher for the given worker addresses: one record
// and one keeper per address. It returns immediately; connections are
// established in the background (WaitReady blocks for the first). An
// empty address list yields a dispatcher whose RunChunkInto always
// reports ErrNoWorkers — graceful degradation to local-only execution.
func New(addrs []string, opts Options) *Dispatcher {
	d := newDispatcher(addrs, opts)
	for _, wk := range d.workers {
		d.wg.Add(1)
		go d.keeper(wk)
	}
	if d.opts.timing.heartbeat > 0 {
		d.wg.Add(1)
		go d.heartbeater()
	}
	return d
}

// newDispatcher builds the dispatcher and its worker records and starts
// nothing: New starts the goroutines, and the breaker's tests step the
// records on a manual clock.
func newDispatcher(addrs []string, opts Options) *Dispatcher {
	opts.setDefaults()
	d := &Dispatcher{
		opts:   opts,
		idle:   make(chan *wconn, len(addrs)*opts.MaxConnsPerWorker+1),
		closed: make(chan struct{}),
		ready:  make(chan struct{}),
		log:    obs.OrNop(opts.Log),
		now:    time.Now,
		local:  newUnitEnvs(nil),
	}
	if opts.AuditFraction > 0 {
		d.auditRng = rand.New(rand.NewSource(rand.Int63()))
	}
	var metrics *obs.Registry // nil-safe
	if rec := opts.Rec; rec != nil {
		metrics = rec.Metrics
		d.mDials = rec.Counter("farm.dials")
		d.mDialFails = rec.Counter("farm.dial_failures")
		d.mChunks = rec.Counter("farm.chunks")
		d.mErrors = rec.Counter("farm.chunk_errors")
		d.mRetries = rec.Counter("farm.retries")
		d.mEvicts = rec.Counter("farm.conn_evictions")
		d.mInflight = rec.Gauge("farm.inflight")
		d.mAudits = rec.Counter("farm.audits")
		d.mMismatches = rec.Counter("farm.audit_mismatches")
		d.hRPCNs = rec.Histogram("farm.rpc_ns", obs.LatencyBounds())
		d.tracer = rec.Trace
		d.gQuarantined = rec.Gauge("farm.workers_quarantined")
		d.cQuarantines = rec.Counter("farm.quarantines")
		d.cProbes = rec.Counter("farm.health_probes")
	}
	for i, addr := range addrs {
		d.workers = append(d.workers, &worker{
			addr: addr,
			idx:  i,
			// One series per configured address, so the label
			// cardinality is bounded.
			gauge:    metrics.GaugeWith("farm.conns", obs.Labels("peer", addr)),
			wake:     make(chan struct{}, 1),
			conns:    map[*wconn]struct{}{},
			capacity: 1,
			state:    healthHealthy,
			cooldown: opts.timing.cooldown,
		})
	}
	return d
}

// Lanes is the recommended number of scheduler lanes to attach: one per
// potential connection slot, so a fully healthy fleet can be saturated
// while the acquire timeout keeps lanes from stalling when slots are down.
func (d *Dispatcher) Lanes() int {
	return len(d.workers) * d.opts.MaxConnsPerWorker
}

// WaitReady blocks until at least one worker connection has completed
// its handshake, or the timeout expires (ErrNoWorkers), or the
// dispatcher closes. Callers that prefer pure graceful degradation can
// skip it: an unready dispatcher just falls back locally.
func (d *Dispatcher) WaitReady(timeout time.Duration) error {
	select {
	case <-d.ready:
		return nil
	case <-time.After(timeout):
		return ErrNoWorkers
	case <-d.closed:
		return ErrDispatcherClosed
	}
}

// RunChunkInto implements sim.ChunkRunner: it relocates the chunk to a
// worker and merges the aggregate into dst (which must be zeroed and
// sized to c.Events), retrying across connections before reporting
// failure (which sends the chunk to the scheduler's local fallback). The
// scheduler's remote lanes call this with per-lane scratch, so a healthy
// session moves chunks with no per-chunk allocation on either end.
func (d *Dispatcher) RunChunkInto(c sim.RemoteChunk, dst *coverage.Counts) error {
	if dst.Len() != c.Events {
		return fmt.Errorf("farm: RunChunkInto: dst has %d events, chunk has %d", dst.Len(), c.Events)
	}
	select {
	case <-d.closed:
		return ErrDispatcherClosed
	default:
	}
	if err := CheckModelFits(c.Events); err != nil {
		// The model cannot travel in a legal frame; retrying would fail
		// identically, so surface the typed error before taking a
		// connection.
		d.mErrors.Inc()
		return err
	}
	var lastErr error
	for attempt := 0; attempt < d.opts.timing.attempts; attempt++ {
		if attempt > 0 {
			d.mRetries.Inc()
			d.sleep(d.backoff(attempt - 1))
		}
		w := d.acquire()
		if w == nil {
			if lastErr == nil {
				lastErr = ErrNoWorkers
			}
			break
		}
		d.mInflight.Add(1)
		err := d.runAttempt(w, c, dst)
		d.mInflight.Add(-1)
		if err == nil {
			d.mChunks.Inc()
			return nil
		}
		lastErr = err
		d.mErrors.Inc()
	}
	return lastErr
}

// runAttempt runs one chunk attempt on an acquired connection, owning
// its lifecycle from here: on success the validated result is merged
// into dst exactly once (after an optional integrity audit) and the
// connection pooled; on failure the connection is evicted.
func (d *Dispatcher) runAttempt(w *wconn, c sim.RemoteChunk, dst *coverage.Counts) error {
	dur, err := d.exchange(w, c)
	if err != nil {
		d.score(w.wk, 0, false)
		d.kill(w)
		return err
	}
	d.score(w.wk, dur, true)
	d.deliver(w, c, dst)
	return nil
}

// score feeds one exchange outcome to the health breaker and evicts the
// connections of a worker the breaker just quarantined.
func (d *Dispatcher) score(wk *worker, dur time.Duration, ok bool) {
	for _, victim := range d.outcome(wk, dur, ok) {
		d.kill(victim)
	}
}

// deliver merges the validated result an exchange left in w.rf into dst
// exactly once and returns the connection to the pool. When audit
// sampling selects the chunk, the result is cross-checked against a
// local re-execution first: on a mismatch the local ground truth is
// merged instead, the remote result is discarded, and the worker is
// quarantined permanently.
func (d *Dispatcher) deliver(w *wconn, c sim.RemoteChunk, dst *coverage.Counts) {
	if d.shouldAudit() && !d.audit(w, c, dst) {
		return // mismatch: local counts merged, connection evicted
	}
	dst.AddRaw(w.rf.Hits, w.rf.Sims)
	d.put(w)
}

// shouldAudit samples AuditFraction of delivered chunks.
func (d *Dispatcher) shouldAudit() bool {
	f := d.opts.AuditFraction
	if f <= 0 {
		return false
	}
	if f >= 1 {
		return true
	}
	d.auditMu.Lock()
	hit := d.auditRng.Float64() < f
	d.auditMu.Unlock()
	return hit
}

// audit re-executes the chunk locally and cross-checks the remote
// result in w.rf. It reports true when the remote result is verified
// (the caller merges it). On a mismatch it merges the local ground
// truth into dst, quarantines the worker permanently, evicts its
// connections, and reports false. Audit infrastructure failures
// (unknown unit, local run error) accept the remote result — the audit
// is an opportunistic cross-check, not a gate.
func (d *Dispatcher) audit(w *wconn, c sim.RemoteChunk, dst *coverage.Counts) bool {
	local, err := d.auditRun(c)
	if err != nil {
		d.log.Warn("farm: audit re-execution failed; accepting remote result",
			"worker", w.wk.addr, "unit", c.Unit, "err", err)
		return true
	}
	d.mAudits.Inc()
	hits, sims := local.Raw()
	if sims == w.rf.Sims && slices.Equal(hits, w.rf.Hits) {
		return true
	}
	d.mMismatches.Inc()
	d.log.Warn("farm: result integrity audit mismatch; quarantining worker",
		"worker", w.wk.addr, "campaign", c.Campaign, "batch", c.Batch, "chunk", c.Chunk,
		"remote_digest", chunkDigest(w.rf.Hits, w.rf.Sims),
		"local_digest", chunkDigest(hits, sims))
	for _, victim := range d.integrityFailure(w.wk) {
		d.kill(victim)
	}
	d.kill(w) // idempotent: integrityFailure's sweep usually got it
	dst.AddRaw(hits, sims)
	return false
}

// auditRun re-executes a chunk on the local executor a worker uses.
// Chunks are pure functions of (template, seed, range), so the local run
// is ground truth.
func (d *Dispatcher) auditRun(c sim.RemoteChunk) (*coverage.Counts, error) {
	d.auditMu.Lock()
	defer d.auditMu.Unlock()
	env, err := d.local.env(c.Unit)
	if err != nil {
		return nil, err
	}
	counts := coverage.NewCounts(c.Events)
	if err := env.RunChunkInto(c.Template, c.Seed, c.Lo, c.Hi, counts); err != nil {
		return nil, err
	}
	return counts, nil
}

// chunkDigest is a short FNV-1a fingerprint of a chunk result, for
// audit-mismatch logs.
func chunkDigest(hits []uint64, sims uint64) string {
	h := fnv.New64a()
	var buf [8]byte
	for _, v := range hits {
		h.Write(binary.LittleEndian.AppendUint64(buf[:0], v))
	}
	h.Write(binary.LittleEndian.AppendUint64(buf[:0], sims))
	return fmt.Sprintf("%016x", h.Sum64())
}

// exchange performs one chunk RPC on a connection the caller owns,
// under the per-chunk deadline, leaving the validated result in w.rf
// for the caller to merge (exactly once, possibly after an audit).
// Returns the exchange's wall-clock duration for health scoring.
func (d *Dispatcher) exchange(w *wconn, c sim.RemoteChunk) (time.Duration, error) {
	sp := d.tracer.Span("farm", "rpc")
	if sp != nil {
		sp = sp.WithTid(200 + w.wk.idx)
		sp.SetArg("worker", w.wk.addr)
		sp.SetArg("instances", c.Hi-c.Lo)
		sp.SetArg("chunk", c.Chunk)
		sp.SetArg("batch", c.Batch)
		if c.Campaign != "" {
			sp.SetArg("campaign", c.Campaign)
		}
	}
	start := time.Now()
	err := d.exchange1(w, c)
	dur := time.Since(start)
	d.hRPCNs.Observe(uint64(dur))
	if sp != nil {
		sp.SetArg("ok", err == nil)
		sp.End()
	}
	if err != nil {
		d.log.Debug("farm: chunk exchange failed",
			"worker", w.wk.addr,
			"campaign", c.Campaign, "batch", c.Batch, "chunk", c.Chunk, "err", err)
	}
	return dur, err
}

// exchange1 is one chunk request and its validated result in w.rf.
func (d *Dispatcher) exchange1(w *wconn, c sim.RemoteChunk) error {
	fillChunkFrame(&w.rf, 0, c)
	if err := w.roundTrip(&w.rf, TypeResult, d.opts.timing.chunk); err != nil {
		return err
	}
	f := &w.rf
	if f.Err != "" {
		return fmt.Errorf("farm: worker %s: %s", w.wk.addr, f.Err)
	}
	n := uint64(c.Hi - c.Lo)
	if len(f.Hits) != c.Events || f.Sims != n {
		return fmt.Errorf("farm: worker %s: malformed result (%d events/%d sims, want %d/%d)",
			w.wk.addr, len(f.Hits), f.Sims, c.Events, n)
	}
	return nil
}

// roundTrip writes req under the connection's next correlation ID and
// reads into w.rf (req may be w.rf itself) until the reply of the given
// type carrying that ID arrives, all under one deadline. Stale frames —
// duplicates from a flaky transport, late heartbeat replies — are
// skipped, so a noisy connection yields the right reply or an error,
// never a mismatched one.
func (w *wconn) roundTrip(req *Frame, reply string, timeout time.Duration) error {
	w.conn.SetDeadline(time.Now().Add(timeout))
	defer w.conn.SetDeadline(time.Time{})
	id := w.nextID
	w.nextID++
	req.ID = id
	if err := w.cdc.write(w.conn, req); err != nil {
		return err
	}
	for {
		if err := w.cdc.read(w.conn, &w.rf); err != nil {
			return err
		}
		if w.rf.Type == reply && w.rf.ID == id {
			return nil
		}
	}
}

// acquire pulls an idle connection, skipping any that died while
// pooled and evicting connections of quarantined workers. nil means no
// connection within the acquire timeout, none established at all (a
// dead or not yet connected fleet falls back at once), or closed.
func (d *Dispatcher) acquire() *wconn {
	deadline := time.NewTimer(d.opts.timing.acquire)
	defer deadline.Stop()
	for d.live.Load() > 0 {
		select {
		case w := <-d.idle:
			if w.dead.Load() {
				continue
			}
			if !d.allowed(w.wk) {
				d.kill(w)
				continue
			}
			return w
		case <-deadline.C:
			return nil
		case <-d.closed:
			return nil
		}
	}
	return nil
}

// put returns a healthy connection to the pool.
func (d *Dispatcher) put(w *wconn) {
	select {
	case <-d.closed:
		d.kill(w)
		return
	default:
	}
	select {
	case d.idle <- w:
	default:
		// Pool sized for every possible slot; overflow means bookkeeping
		// is off somewhere — evict rather than block a scheduler lane.
		d.kill(w)
	}
}

// kill evicts a connection and pokes its worker's keeper to redial.
func (d *Dispatcher) kill(w *wconn) {
	if w.dead.Swap(true) {
		return
	}
	wk := w.wk
	d.mEvicts.Inc()
	d.live.Add(-1)
	wk.gauge.Add(-1)
	d.mu.Lock()
	delete(wk.conns, w)
	d.mu.Unlock()
	d.log.Debug("farm: connection evicted", "worker", wk.addr)
	w.conn.Close()
	wk.poke()
}

// keeper is the worker's one dialer. It asks the record (next) and
// dials one connection into the pool while the record wants one, and
// otherwise parks until poked, until a quarantine's cooldown passes, or
// until Close. Its first dial after a cooldown is therefore the
// half-open probe, and it exits when the worker is quarantined for
// good. A failed dial backs off per worker (backoffBase doubling to
// backoffMax), and a handshake resets the backoff.
func (d *Dispatcher) keeper(wk *worker) {
	defer d.wg.Done()
	for {
		select {
		case <-d.closed:
			return
		default:
		}
		dial, wait, exit := d.next(wk)
		if exit {
			return
		}
		if !dial {
			var cooled <-chan time.Time
			if wait > 0 {
				cooled = time.After(wait)
			}
			select {
			case <-wk.wake:
			case <-cooled:
			case <-d.closed:
			}
			continue
		}
		d.mDials.Inc()
		w, err := d.dial(wk)
		if err != nil {
			d.mDialFails.Inc()
			d.mu.Lock()
			wk.dialFails++
			fails := wk.dialFails
			d.mu.Unlock()
			d.log.Debug("farm: dial failed", "worker", wk.addr, "fails", fails, "err", err)
			d.sleep(d.backoff(fails - 1))
			continue
		}
		d.readyOne.Do(func() { close(d.ready) })
		d.put(w)
	}
}

// dial opens, handshakes and registers one connection to the worker.
// The hello/welcome exchange is JSON: the hello offers ProtocolVersion
// in Max and only a welcome confirming exactly that version is
// accepted. A refusal (error frame, wrong welcome, any other version)
// maps onto ErrVersionMismatch.
func (d *Dispatcher) dial(wk *worker) (*wconn, error) {
	conn, err := d.opts.Dial(wk.addr)
	if err != nil {
		return nil, err
	}
	conn.SetDeadline(time.Now().Add(d.opts.timing.chunk))
	hello := &Frame{Type: TypeHello, Version: handshakeVersion, Max: ProtocolVersion,
		Build: buildinfo.Read().Short()}
	if err := WriteFrame(conn, hello); err != nil {
		conn.Close()
		return nil, err
	}
	var f Frame
	if err := ReadFrame(conn, &f); err != nil {
		conn.Close()
		return nil, err
	}
	conn.SetDeadline(time.Time{})
	if f.Type == TypeError {
		conn.Close()
		return nil, fmt.Errorf("%w: worker %s: %s", ErrVersionMismatch, wk.addr, f.Err)
	}
	if f.Type != TypeWelcome || f.Version != handshakeVersion || f.Max != ProtocolVersion {
		conn.Close()
		return nil, fmt.Errorf("%w: worker %s answered %q handshake v%d protocol v%d, want protocol v%d",
			ErrVersionMismatch, wk.addr, f.Type, f.Version, f.Max, ProtocolVersion)
	}
	w := &wconn{wk: wk, conn: conn}
	d.mu.Lock()
	wk.conns[w] = struct{}{}
	wk.capacity = max(f.Capacity, 1)
	wk.dialFails = 0
	d.mu.Unlock()
	wk.gauge.Add(1)
	d.live.Add(1)
	d.log.Info("farm: connection established",
		"worker", wk.addr, "remote", conn.RemoteAddr().String(),
		"capacity", f.Capacity, "build", f.Build)
	return w, nil
}

// heartbeater periodically pings pooled (idle) connections and evicts
// the dead; their keepers redial, so a restarted worker rejoins without
// intervention. In-flight connections are not pinged — an active
// exchange is its own liveness proof, and exclusive ownership keeps
// ping/result frames from interleaving.
func (d *Dispatcher) heartbeater() {
	defer d.wg.Done()
	t := time.NewTicker(d.opts.timing.heartbeat)
	defer t.Stop()
	for {
		select {
		case <-d.closed:
			return
		case <-t.C:
			for n := len(d.idle); n > 0; n-- {
				select {
				case w := <-d.idle:
					if w.dead.Load() {
						continue
					}
					if d.ping(w) != nil {
						d.kill(w)
					} else {
						d.put(w)
					}
				default:
					n = 0
				}
			}
		}
	}
}

// ping is one heartbeat round trip, under the heartbeat interval.
func (d *Dispatcher) ping(w *wconn) error {
	w.rf = Frame{Type: TypePing, Hits: w.rf.Hits[:0]}
	return w.roundTrip(&w.rf, TypePong, d.opts.timing.heartbeat)
}

// Close stops the dispatcher: keepers and the heartbeater exit, every
// connection is closed, audit environments shut down, and subsequent
// RunChunkInto calls report ErrDispatcherClosed (in-flight exchanges fail
// and fall back locally). Close is idempotent.
func (d *Dispatcher) Close() {
	d.stop.Do(func() { close(d.closed) })
	// A keeper registers a connection before put checks closed, so a
	// connection this sweep misses is killed by put.
	var conns []*wconn
	d.mu.Lock()
	for _, wk := range d.workers {
		for w := range wk.conns {
			conns = append(conns, w)
		}
	}
	d.mu.Unlock()
	for _, w := range conns {
		d.kill(w)
	}
	d.wg.Wait()
	d.auditMu.Lock()
	d.local.close()
	d.auditMu.Unlock()
}

// sleep waits for dur unless the dispatcher closes first.
func (d *Dispatcher) sleep(dur time.Duration) {
	select {
	case <-time.After(dur):
	case <-d.closed:
	}
}

// backoff is the attempt'th exponential backoff step under the
// dispatcher's retry configuration.
func (d *Dispatcher) backoff(attempt int) time.Duration {
	t := &d.opts.timing
	return backoff(t.backoffBase, t.backoffMax, attempt, t.jitter)
}

// backoff is the attempt'th exponential backoff step with ±jitter
// (a fraction of the step; 0 disables).
func backoff(base, max time.Duration, attempt int, jitter float64) time.Duration {
	dur := base << uint(min(attempt, 16))
	if dur > max || dur <= 0 {
		dur = max
	}
	if jitter > 0 {
		span := int64(float64(dur) * jitter)
		if span > 0 {
			dur += time.Duration(rand.Int63n(2*span+1) - span)
		}
	}
	return dur
}
