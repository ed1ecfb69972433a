package farm

import (
	"errors"
	"fmt"
	"log/slog"
	"net"
	"runtime"
	"sync"
	"sync/atomic"
	"time"

	"repro/internal/buildinfo"
	"repro/internal/coverage"
	"repro/internal/duv"
	"repro/internal/failpoint"
	"repro/internal/obs"
	"repro/internal/sim"
)

// ServerOptions configure a farm worker.
type ServerOptions struct {
	// Capacity bounds concurrently executing chunks (welcome frames
	// advertise it so dispatchers open a matching number of
	// connections). <= 0 selects GOMAXPROCS.
	Capacity int
	// PlanCacheSize bounds each unit environment's compiled-plan cache
	// (<= 0: sim.DefaultPlanCacheSize). Worth setting on long-lived
	// daemons: every chunk request re-parses its template, and only the
	// content-keyed cache keeps that from becoming a compile per chunk.
	PlanCacheSize int
	// DrainTimeout bounds Shutdown: connections executing a chunk get
	// this long to finish and write their result before being severed
	// (severed chunks are re-run by the dispatcher's fallback, so drain
	// is an optimization, never a correctness requirement). <= 0: 10s.
	DrainTimeout time.Duration
	// Rec receives the worker's metrics and traces (nil disables).
	Rec *obs.Recorder
	// Log receives structured session-lifecycle events with correlated
	// fields (peer, chunk). nil discards.
	Log *slog.Logger
	// FP is the failpoint registry consulted at the worker's injection
	// points (farm/serve_read, farm/serve_write, farm/serve_chunk). nil
	// selects failpoint.Default — disarmed in production. The corrupt
	// policy at farm/serve_chunk turns this worker byzantine: results
	// are silently wrong but perfectly well-formed, which only the
	// dispatcher's integrity audit can catch.
	FP *failpoint.Registry
}

// Server executes chunk requests for any registered DUV. One Server
// serves many connections; each connection executes at most one chunk
// at a time (the dispatcher opens one connection per capacity slot),
// and a capacity semaphore bounds the total across connections.
type Server struct {
	opts ServerOptions
	sem  chan struct{}

	local *unitEnvs

	mu    sync.Mutex
	conns map[*serverConn]struct{}
	wg    sync.WaitGroup

	draining atomic.Bool
	done     chan struct{} // closed when Shutdown begins

	log *slog.Logger
	fp  *failpoint.Registry

	// Metric handles (all nil-safe).
	mConns    *obs.Gauge
	mChunks   *obs.Counter
	mErrors   *obs.Counter
	mRefused  *obs.Counter
	mSessions *obs.Gauge // handshaken sessions
	hChunkNs  *obs.Histogram
	hSims     *obs.Histogram
	tracer    *obs.Tracer
}

// serverConn is one client connection plus the flag Shutdown uses to
// decide whether it may be severed immediately (idle, blocked in read)
// or should be left to finish its in-flight chunk.
type serverConn struct {
	conn net.Conn
	busy atomic.Bool
}

// NewServer builds a worker with the given options.
func NewServer(opts ServerOptions) *Server {
	if opts.Capacity <= 0 {
		opts.Capacity = runtime.GOMAXPROCS(0)
	}
	if opts.DrainTimeout <= 0 {
		opts.DrainTimeout = 10 * time.Second
	}
	s := &Server{
		opts:  opts,
		sem:   make(chan struct{}, opts.Capacity),
		local: newUnitEnvs(opts.Rec, opts.PlanCacheSize),
		conns: map[*serverConn]struct{}{},
		done:  make(chan struct{}),
	}
	s.log = obs.OrNop(opts.Log)
	s.fp = opts.FP
	if s.fp == nil {
		s.fp = failpoint.Default
	}
	if rec := opts.Rec; rec != nil {
		s.mConns = rec.Gauge("farm.server.conns")
		s.mChunks = rec.Counter("farm.server.chunks")
		s.mErrors = rec.Counter("farm.server.chunk_errors")
		s.mRefused = rec.Counter("farm.server.refused")
		s.mSessions = rec.Gauge("farm.server.sessions")
		s.hChunkNs = rec.Histogram("farm.server.chunk_ns", obs.LatencyBounds())
		s.hSims = rec.Histogram("farm.server.chunk_size", obs.SizeBounds())
		s.tracer = rec.Trace
	}
	return s
}

// Capacity reports the worker's concurrent-chunk bound.
func (s *Server) Capacity() int { return cap(s.sem) }

// errDraining is Ready's failure once Shutdown has begun.
var errDraining = errors.New("farm: worker is draining")

// Ready is the worker's readiness check for /readyz: nil while the
// worker accepts sessions, errDraining once Shutdown has begun, so load
// balancers stop routing chunks at a node that is on its way out.
func (s *Server) Ready() error {
	if s.draining.Load() {
		return errDraining
	}
	return nil
}

// Serve accepts connections until the listener fails or Shutdown runs.
// Each connection is handled on its own goroutine via ServeConn.
func (s *Server) Serve(ln net.Listener) error {
	go func() {
		<-s.done
		ln.Close()
	}()
	for {
		conn, err := ln.Accept()
		if err != nil {
			if s.draining.Load() {
				return nil
			}
			return err
		}
		s.wg.Add(1)
		go func() {
			defer s.wg.Done()
			s.ServeConn(conn)
		}()
	}
}

// ServeConn speaks the farm protocol on one connection until the peer
// hangs up, an I/O or protocol error occurs, or the server drains. It
// is exported so transports other than TCP (the in-memory fault-
// injection loopback, tests) can drive a server directly.
func (s *Server) ServeConn(conn net.Conn) {
	sc := &serverConn{conn: conn}
	if !s.track(sc) {
		conn.Close()
		return
	}
	s.mConns.Add(1)
	defer func() {
		s.untrack(sc)
		s.mConns.Add(-1)
		conn.Close()
	}()

	// Handshake, in JSON frames: refuse anything that is not a hello
	// at the handshake framing version offering protocol v3 or later.
	var f Frame
	if err := ReadFrame(conn, &f); err != nil || f.Type != TypeHello {
		s.mRefused.Inc()
		return
	}
	if f.Version != handshakeVersion || f.Max < ProtocolVersion {
		s.mRefused.Inc()
		WriteFrame(conn, &Frame{Type: TypeError, Err: fmt.Sprintf(
			"hello offers protocol version %d (handshake %d); this worker speaks version %d (handshake %d)",
			f.Max, f.Version, ProtocolVersion, handshakeVersion)})
		return
	}
	if err := WriteFrame(conn, &Frame{
		Type: TypeWelcome, Version: handshakeVersion, Max: ProtocolVersion, Capacity: s.Capacity(),
		Build: buildinfo.Read().Short(),
	}); err != nil {
		return
	}
	peer := conn.RemoteAddr().String()
	s.mSessions.Add(1)
	s.log.Info("farm: session started", "peer", peer, "peer_build", f.Build)
	defer func() {
		s.mSessions.Add(-1)
		s.log.Debug("farm: session ended", "peer", peer)
	}()

	// Session state, all reused across the connection's frames: the
	// codec's scratch buffers, the response frame (its Hits buffer grows
	// once to the model size), and the chunk executor's scratch
	// aggregate — so a long-lived connection executes chunks with zero
	// allocations on the protocol path.
	var cdc codec
	var resp Frame
	var scratch *coverage.Counts
	for {
		if err := cdc.read(conn, &f); err != nil {
			return // peer gone, or Shutdown severed an idle connection
		}
		// farm/serve_read simulates a worker that dies (or stalls) after
		// accepting a request — the chunk is in flight but no result will
		// ever come, so the dispatcher must time out and retry elsewhere.
		if err := s.fp.Eval("farm/serve_read"); err != nil {
			if errors.Is(err, failpoint.ErrInjected) {
				s.log.Debug("farm: failpoint severed session", "point", "farm/serve_read", "peer", peer)
			}
			return
		}
		switch f.Type {
		case TypePing:
			resp = Frame{Type: TypePong, ID: f.ID, Hits: resp.Hits[:0]}
			if err := cdc.write(conn, &resp); err != nil {
				return
			}
		case TypeChunk:
			sc.busy.Store(true)
			var drop bool
			scratch, drop = s.execute(&f, &resp, scratch)
			// farm/serve_write: drop swallows the computed result (the
			// session lives on, the dispatcher times out); any other
			// policy severs the session after the work was done.
			var err error
			switch werr := s.fp.Eval("farm/serve_write"); {
			case errors.Is(werr, failpoint.ErrDropped) || drop:
			case werr != nil:
				sc.busy.Store(false)
				return
			default:
				err = cdc.write(conn, &resp)
			}
			sc.busy.Store(false)
			if err != nil || s.draining.Load() {
				return
			}
		default:
			resp = Frame{Type: TypeError, Err: "farm: unexpected frame " + f.Type}
			cdc.write(conn, &resp)
			return
		}
	}
}

// execute runs one chunk request under the capacity semaphore and
// fills the caller's reusable result frame. Failures (unknown unit,
// unparsable template, bad range, oversized model) are reported
// in-band so the dispatcher can fall back locally without killing the
// connection. The scratch aggregate is connection-local and returned
// (possibly resized) for reuse by the next chunk.
func (s *Server) execute(f *Frame, resp *Frame, scratch *coverage.Counts) (*coverage.Counts, bool) {
	s.sem <- struct{}{}
	defer func() { <-s.sem }()

	sp := s.tracer.Span("farm", "serve_chunk")
	start := time.Now()
	*resp = Frame{Type: TypeResult, ID: f.ID, Hits: resp.Hits[:0]}
	var err error
	drop := false
	scratch, err = s.runChunk(f, scratch)
	if err != nil {
		s.mErrors.Inc()
		resp.Err = err.Error()
	} else {
		s.mChunks.Inc()
		resp.Hits, resp.Sims = scratch.AppendRaw(resp.Hits[:0])
		s.hSims.Observe(resp.Sims)
		// farm/serve_chunk is the byzantine-worker seam: corrupt silently
		// mutates the (well-formed) result, delay turns this worker into
		// a straggler, drop swallows the result, error reports a compute
		// failure in-band.
		switch cerr := s.fp.Uints("farm/serve_chunk", resp.Hits); {
		case cerr == nil:
		case errors.Is(cerr, failpoint.ErrDropped):
			drop = true
		default:
			err = cerr
			s.mErrors.Inc()
			resp.Err = cerr.Error()
			resp.Hits, resp.Sims = resp.Hits[:0], 0
		}
	}
	s.hChunkNs.Observe(uint64(time.Since(start)))
	if sp != nil {
		sp.SetArg("unit", f.Unit)
		sp.SetArg("instances", f.Hi-f.Lo)
		sp.SetArg("ok", err == nil)
		// Echo the dispatcher's trace identity so merged fleet timelines
		// can join this span with its dispatcher-side parent.
		sp.SetArg("chunk", f.Chunk)
		sp.SetArg("batch", f.Batch)
		if f.Campaign != "" {
			sp.SetArg("campaign", f.Campaign)
		}
		sp.End()
	}
	if err != nil {
		s.log.Debug("farm: chunk failed", "unit", f.Unit,
			"campaign", f.Campaign, "batch", f.Batch, "chunk", f.Chunk, "err", err)
	}
	return scratch, drop
}

// runChunk resolves the request's unit environment and re-executes the
// chunk deterministically via sim.Env.RunChunkInto, merging into the
// connection's scratch aggregate (resized only when the model size
// changes between requests).
func (s *Server) runChunk(f *Frame, scratch *coverage.Counts) (*coverage.Counts, error) {
	env, err := s.local.env(f.Unit)
	if err != nil {
		return scratch, err
	}
	events := env.Unit().Model().Size()
	if err := CheckModelFits(events); err != nil {
		// A model this large cannot travel in any result frame; tell
		// the dispatcher in-band instead of failing on the write.
		return scratch, err
	}
	tmpl, err := chunkTemplate(f)
	if err != nil {
		return scratch, err
	}
	if scratch == nil || scratch.Len() != events {
		scratch = coverage.NewCounts(events)
	} else {
		scratch.Reset()
	}
	return scratch, env.RunChunkInto(tmpl, f.Seed, f.Lo, f.Hi, scratch)
}

// unitEnvs is the local chunk executor: one lazily built environment
// per unit, shared by a worker's connections and by the dispatcher's
// audits. Environments are single-worker — a chunk runs inline on its
// caller's goroutine, and the caller bounds the concurrency — and their
// seed is irrelevant, since every chunk carries its own.
type unitEnvs struct {
	rec       *obs.Recorder // nil: unrecorded
	planCache int           // <= 0: sim.DefaultPlanCacheSize

	mu   sync.Mutex
	envs map[string]*sim.Env // nil once closed
}

var errExecutorClosed = errors.New("farm: local executor is closed")

func newUnitEnvs(rec *obs.Recorder, planCache int) *unitEnvs {
	return &unitEnvs{rec: rec, planCache: planCache, envs: map[string]*sim.Env{}}
}

// env returns the unit's environment, building it on first use.
func (u *unitEnvs) env(unit string) (*sim.Env, error) {
	u.mu.Lock()
	defer u.mu.Unlock()
	if u.envs == nil {
		return nil, errExecutorClosed
	}
	if e, ok := u.envs[unit]; ok {
		return e, nil
	}
	d, err := duv.New(unit)
	if err != nil {
		return nil, err
	}
	e := sim.NewEnv(d, 1, 1)
	if u.rec != nil {
		e.SetRecorder(u.rec)
	}
	if u.planCache > 0 {
		e.SetPlanCacheSize(u.planCache)
	}
	u.envs[unit] = e
	return e, nil
}

// close shuts every environment down; later env calls fail.
func (u *unitEnvs) close() {
	u.mu.Lock()
	defer u.mu.Unlock()
	for _, e := range u.envs {
		e.Close()
	}
	u.envs = nil
}

// track registers a connection; it refuses once draining so Shutdown's
// sever pass cannot race with late arrivals.
func (s *Server) track(sc *serverConn) bool {
	s.mu.Lock()
	defer s.mu.Unlock()
	if s.draining.Load() {
		return false
	}
	s.conns[sc] = struct{}{}
	return true
}

func (s *Server) untrack(sc *serverConn) {
	s.mu.Lock()
	delete(s.conns, sc)
	s.mu.Unlock()
}

// Shutdown drains the worker: new connections are refused, idle
// connections are severed immediately, and connections executing a
// chunk get DrainTimeout to finish and write their result before being
// severed too. Chunks lost to a hard sever are simply re-run elsewhere
// by the dispatcher — the farm never double-counts either way, because
// the scheduler merges each chunk exactly once whoever computes it.
// Shutdown is idempotent and returns once every handler has exited.
func (s *Server) Shutdown() {
	if s.draining.Swap(true) {
		s.wg.Wait()
		return
	}
	close(s.done) // stops Serve's accept loop

	// Sever idle connections; busy ones finish their in-flight chunk
	// and exit after writing the result (ServeConn checks draining).
	s.mu.Lock()
	for sc := range s.conns {
		if !sc.busy.Load() {
			sc.conn.Close()
		}
	}
	s.mu.Unlock()

	finished := make(chan struct{})
	go func() {
		s.wg.Wait()
		close(finished)
	}()
	select {
	case <-finished:
	case <-time.After(s.opts.DrainTimeout):
		s.mu.Lock()
		for sc := range s.conns {
			sc.conn.Close()
		}
		s.mu.Unlock()
		<-finished
	}
	s.local.close()
}
