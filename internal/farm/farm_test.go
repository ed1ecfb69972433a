package farm

import (
	"errors"
	"math"
	"net"
	"strings"
	"sync"
	"testing"
	"time"

	"repro/internal/coverage"
	"repro/internal/duv/iounit"
	"repro/internal/obs"
	"repro/internal/sim"
	"repro/internal/template"
)

// testTiming is aggressive so fault scenarios resolve in milliseconds
// instead of fleetTiming's seconds.
var testTiming = timing{
	chunk:       2 * time.Second,
	acquire:     50 * time.Millisecond,
	attempts:    3,
	heartbeat:   20 * time.Millisecond,
	backoffBase: 2 * time.Millisecond,
	backoffMax:  20 * time.Millisecond,
	jitter:      0.25,
}

func testOptions(dial func(string) (net.Conn, error), rec *obs.Recorder) Options {
	return Options{Dial: dial, Rec: rec, timing: testTiming}
}

func TestOptionsValidate(t *testing.T) {
	for _, tc := range []struct {
		audit float64
		ok    bool
	}{
		{0, true},
		{0.5, true},
		{1, true},
		{math.NaN(), false},
		{2, false},
		{-0.5, false},
	} {
		o := Options{AuditFraction: tc.audit}
		if err := o.Validate(); (err == nil) != tc.ok {
			t.Errorf("Validate(audit fraction %v) = %v, want ok %v", tc.audit, err, tc.ok)
		}
	}
}

func altTemplate(t *testing.T) *template.Template {
	t.Helper()
	tmpl, err := template.Parse("template farm_alt { weight Command { dma_read: 10; dma_write: 30; } }")
	if err != nil {
		t.Fatal(err)
	}
	return tmpl
}

// workload runs a fixed two-batch workload on an iounit environment
// with the given runner attached and returns the merged aggregate plus
// total sims accounting — the quantity every topology must agree on
// bit for bit.
func workload(t *testing.T, r sim.ChunkRunner, lanes int) *coverage.Counts {
	t.Helper()
	env := sim.NewEnv(iounit.New(), 1234, 2)
	defer env.Close()
	if r != nil {
		env.AttachRunner(r, lanes)
	}
	unit := env.Unit()
	a, err := env.Submit(unit.BaseTemplates()[0], 600)
	if err != nil {
		t.Fatal(err)
	}
	b, err := env.Submit(altTemplate(t), 400)
	if err != nil {
		t.Fatal(err)
	}
	total := coverage.NewCountsFor(unit.Model())
	total.Merge(a.Wait())
	total.Merge(b.Wait())
	return total
}

func diffCounts(t *testing.T, label string, got, want *coverage.Counts) {
	t.Helper()
	if got.Sims() != want.Sims() {
		t.Fatalf("%s: sims = %d, want %d (chunk lost or double-counted)", label, got.Sims(), want.Sims())
	}
	for i := 0; i < want.Len(); i++ {
		if got.Hits(i) != want.Hits(i) {
			t.Fatalf("%s: event %d hits = %d, want %d", label, i, got.Hits(i), want.Hits(i))
		}
	}
}

// farmFixture wires a loopback fleet to a dispatcher.
func farmFixture(t *testing.T, faults []Faults, rec *obs.Recorder) (*Dispatcher, []*Server) {
	t.Helper()
	lb := NewLoopback()
	addrs := make([]string, len(faults))
	servers := make([]*Server, len(faults))
	for i, f := range faults {
		servers[i] = NewServer(ServerOptions{Capacity: 2, DrainTimeout: 2 * time.Second})
		addrs[i] = string(rune('a' + i))
		lb.Add(addrs[i], servers[i], f)
	}
	d := New(addrs, testOptions(lb.Dial, rec))
	t.Cleanup(d.Close)
	t.Cleanup(func() {
		for _, s := range servers {
			s.Shutdown()
		}
	})
	return d, servers
}

// handshake opens a session on a raw connection the way the dispatcher
// does, failing the test unless the server welcomes it.
func handshake(t *testing.T, conn net.Conn) {
	t.Helper()
	if err := WriteFrame(conn, &Frame{Type: TypeHello, Version: handshakeVersion, Max: ProtocolVersion}); err != nil {
		t.Fatal(err)
	}
	var f Frame
	if err := ReadFrame(conn, &f); err != nil || f.Type != TypeWelcome {
		t.Fatalf("handshake failed: %v %+v", err, f)
	}
}

// TestFarmBitIdenticalAcrossTopologies is the tentpole acceptance
// criterion: a fixed seed produces the same aggregate with no farm,
// one worker, several workers, and a fleet misbehaving in every
// programmed way (dropped connections, duplicated frames, latency,
// failed dials).
func TestFarmBitIdenticalAcrossTopologies(t *testing.T) {
	want := workload(t, nil, 0)

	scenarios := []struct {
		name   string
		faults []Faults
	}{
		{"one_worker", []Faults{{}}},
		{"three_workers", []Faults{{}, {}, {}}},
		{"dropping_worker", []Faults{{DropAfterFrames: 6}, {}}},
		{"duplicating_worker", []Faults{{DuplicateEvery: 2}, {DuplicateEvery: 3}}},
		{"slow_worker", []Faults{{Delay: 2 * time.Millisecond}, {}}},
		{"flaky_dials", []Faults{{FailDials: 3}, {FailDials: 1}}},
		{"everything_at_once", []Faults{
			{DropAfterFrames: 8, Delay: time.Millisecond},
			{DuplicateEvery: 2, FailDials: 2},
			{},
		}},
	}
	for _, sc := range scenarios {
		t.Run(sc.name, func(t *testing.T) {
			rec := obs.NewRecorder()
			d, _ := farmFixture(t, sc.faults, rec)
			got := workload(t, d, d.Lanes())
			diffCounts(t, sc.name, got, want)
		})
	}
}

// TestFarmRemoteActuallyRuns sanity-checks the remote path end to end
// and deterministically: a chunk pushed through the dispatcher comes
// back bit-identical to the same chunk run by a local environment, and
// the dispatcher's accounting reflects it — so the topology tests above
// are not vacuously comparing local-only runs.
func TestFarmRemoteActuallyRuns(t *testing.T) {
	rec := obs.NewRecorder()
	d, _ := farmFixture(t, []Faults{{}}, rec)
	if err := d.WaitReady(5 * time.Second); err != nil {
		t.Fatal(err)
	}
	unit := iounit.New()
	chunk := sim.RemoteChunk{
		Unit: iounit.UnitName, Template: altTemplate(t), Seed: 42,
		Lo: 0, Hi: 100, Events: unit.Model().Size(),
	}
	got := coverage.NewCountsFor(unit.Model())
	if err := d.RunChunkInto(chunk, got); err != nil {
		t.Fatal(err)
	}
	local := sim.NewEnv(unit, 7, 1) // env seed irrelevant to RunChunkInto
	defer local.Close()
	want := coverage.NewCountsFor(unit.Model())
	if err := local.RunChunkInto(chunk.Template, chunk.Seed, chunk.Lo, chunk.Hi, want); err != nil {
		t.Fatal(err)
	}
	diffCounts(t, "remote chunk", got, want)

	snap := rec.Metrics.Snapshot()
	if snap.Counters["farm.chunks"] != 1 {
		t.Fatalf("farm.chunks = %d, want 1", snap.Counters["farm.chunks"])
	}
	if snap.Gauges["farm.inflight"] != 0 {
		t.Fatalf("inflight gauge = %d after completion, want 0", snap.Gauges["farm.inflight"])
	}
	if snap.Histograms["farm.rpc_ns"].Count != 1 {
		t.Fatalf("rpc_ns count = %d, want 1", snap.Histograms["farm.rpc_ns"].Count)
	}
	// One RPC span on the worker's trace lane.
	spans := 0
	for _, ev := range rec.Trace.Events() {
		if ev.Cat == "farm" && ev.Name == "rpc" {
			spans++
			if ev.Tid != 200 {
				t.Fatalf("rpc span on lane %d, want 200", ev.Tid)
			}
		}
	}
	if spans != 1 {
		t.Fatalf("rpc spans = %d, want 1", spans)
	}
}

// TestFarmWorkerKilledMidRun kills a worker while chunks are in flight:
// the run must complete (no stall), with bit-identical results (no
// loss, no double count) — chunks stranded on the dead worker are
// retried elsewhere or fall back locally.
func TestFarmWorkerKilledMidRun(t *testing.T) {
	want := workload(t, nil, 0)
	// The doomed worker answers slowly so the kill lands mid-exchange.
	d, servers := farmFixture(t, []Faults{{Delay: 3 * time.Millisecond}, {}}, nil)
	done := make(chan *coverage.Counts, 1)
	var wg sync.WaitGroup
	wg.Add(1)
	go func() {
		defer wg.Done()
		done <- workload(t, d, d.Lanes())
	}()
	time.Sleep(10 * time.Millisecond)
	servers[0].Shutdown()
	select {
	case got := <-done:
		diffCounts(t, "mid-run kill", got, want)
	case <-time.After(30 * time.Second):
		t.Fatal("run stalled after worker kill")
	}
	wg.Wait()
}

// TestFarmRejoin checks eviction/rejoin: a worker that refuses its
// first dials is eventually reached by the keeper's backoff loop, and a
// worker whose connections keep dying keeps being redialed.
func TestFarmRejoin(t *testing.T) {
	d, _ := farmFixture(t, []Faults{{FailDials: 4}}, nil)
	if err := d.WaitReady(10 * time.Second); err != nil {
		t.Fatalf("keeper never reached worker after transient dial failures: %v", err)
	}
}

// TestFarmNoWorkers checks graceful degradation: a dispatcher with no
// fleet, or with one no dial reaches, reports ErrNoWorkers at once — so
// scheduler lanes fall back locally — rather than stalling. The
// unreachable fleet runs fleetTiming: its 2 s acquire wait is for a
// connection that is established, not for one no dial has made.
func TestFarmNoWorkers(t *testing.T) {
	want := workload(t, nil, 0)
	for _, tc := range []struct {
		name  string
		addrs []string
		opts  Options
	}{
		{"no_addresses", nil, testOptions(NewLoopback().Dial, nil)},
		{"unreachable", []string{"nowhere"}, Options{Dial: NewLoopback().Dial}},
	} {
		t.Run(tc.name, func(t *testing.T) {
			d := New(tc.addrs, tc.opts)
			defer d.Close()
			start := time.Now()
			err := d.RunChunkInto(sim.RemoteChunk{Unit: iounit.UnitName, Seed: 1, Lo: 0, Hi: 8, Events: 1}, coverage.NewCounts(1))
			if !errors.Is(err, ErrNoWorkers) {
				t.Fatalf("err = %v, want ErrNoWorkers", err)
			}
			if took := time.Since(start); took > 200*time.Millisecond {
				t.Fatalf("ErrNoWorkers after %v, want under 200ms", took)
			}
			// The workload still completes, entirely locally.
			got := workload(t, d, 2)
			diffCounts(t, tc.name, got, want)
		})
	}
}

func TestFarmDispatcherClosed(t *testing.T) {
	d, _ := farmFixture(t, []Faults{{}}, nil)
	d.Close()
	if err := d.RunChunkInto(sim.RemoteChunk{Unit: iounit.UnitName, Hi: 8, Events: 1}, coverage.NewCounts(1)); !errors.Is(err, ErrDispatcherClosed) {
		t.Fatalf("err = %v, want ErrDispatcherClosed", err)
	}
}

// TestFarmUnknownUnitFallsBack checks a worker reports unknown units
// in-band and the scheduler's fallback still completes the run.
func TestFarmUnknownUnit(t *testing.T) {
	d, _ := farmFixture(t, []Faults{{}}, nil)
	if err := d.WaitReady(5 * time.Second); err != nil {
		t.Fatal(err)
	}
	if err := d.RunChunkInto(sim.RemoteChunk{Unit: "no_such_unit", Seed: 1, Lo: 0, Hi: 4, Events: 1}, coverage.NewCounts(1)); err == nil {
		t.Fatal("unknown unit accepted")
	}
}

// TestServerBadTemplateIsAnInBandError: a template the unit cannot run —
// a parameter the unit does not declare, a symbolic value outside the
// parameter's vocabulary — gets an error result, and the same connection
// then serves a good chunk. The first used to run the unit's default in
// silence; the other two used to reach the model: the first of them as a
// false crc_004 hit in every instance, the second as an
// index-out-of-range panic that took the worker process down.
func TestServerBadTemplateIsAnInBandError(t *testing.T) {
	srv := NewServer(ServerOptions{Capacity: 1, DrainTimeout: time.Second})
	defer srv.Shutdown()
	lb := NewLoopback()
	lb.Add("w", srv, Faults{})
	conn, err := lb.Dial("w")
	if err != nil {
		t.Fatal(err)
	}
	defer conn.Close()
	conn.SetDeadline(time.Now().Add(10 * time.Second))
	handshake(t, conn)
	var c codec
	for i, tc := range []struct{ tmpl, wantErr string }{
		{"template bad { weight Comand { crc: 1; } }", `parameter "Comand": not one of the unit's parameters [BurstLen Channel Command Gap PayloadSize]`},
		{"template bad { weight Command { bogus: 1; } }", `value "bogus" is not one of`},
		{"template bad { weight Channel { x: 1; } }", `value "x" is not one of`},
		{altTemplate(t).String(), ""},
	} {
		id := uint64(i + 1)
		if err := c.write(conn, &Frame{
			Type: TypeChunk, ID: id, Unit: iounit.UnitName,
			Template: tc.tmpl, HasTemplate: true, Seed: 7, Lo: 0, Hi: 16,
		}); err != nil {
			t.Fatal(err)
		}
		var res Frame
		if err := c.read(conn, &res); err != nil {
			t.Fatalf("chunk %d: the connection did not survive: %v", id, err)
		}
		if res.Type != TypeResult || res.ID != id {
			t.Fatalf("chunk %d: reply = %+v", id, res)
		}
		if tc.wantErr == "" {
			if res.Err != "" || res.Sims != 16 {
				t.Fatalf("good chunk after bad ones: %+v", res)
			}
		} else if !strings.Contains(res.Err, tc.wantErr) || res.Sims != 0 {
			t.Fatalf("chunk %d: Err = %q (sims %d), want an error mentioning %q", id, res.Err, res.Sims, tc.wantErr)
		}
	}
}

// TestServerDrain checks clean shutdown semantics directly on the
// wire: a connection mid-chunk gets its result before the server goes
// away; an idle connection is severed immediately.
func TestServerDrain(t *testing.T) {
	srv := NewServer(ServerOptions{Capacity: 2, DrainTimeout: 10 * time.Second})
	dialSrv := func() net.Conn {
		client, server := net.Pipe()
		go srv.ServeConn(server)
		client.SetDeadline(time.Now().Add(10 * time.Second))
		handshake(t, client)
		return client
	}
	busy := dialSrv()
	defer busy.Close()
	idle := dialSrv()
	defer idle.Close()

	// A chunk big enough to still be in flight when Shutdown starts.
	var c codec
	if err := c.write(busy, &Frame{
		Type: TypeChunk, ID: 1, Unit: iounit.UnitName, Seed: 7, Lo: 0, Hi: 30000,
	}); err != nil {
		t.Fatal(err)
	}
	time.Sleep(5 * time.Millisecond) // let the server pick the chunk up
	shutdownDone := make(chan struct{})
	go func() {
		srv.Shutdown()
		close(shutdownDone)
	}()

	var res Frame
	if err := c.read(busy, &res); err != nil {
		t.Fatalf("in-flight chunk was severed instead of drained: %v", err)
	}
	if res.Type != TypeResult || res.ID != 1 || res.Err != "" || res.Sims != 30000 {
		t.Fatalf("drained result = %+v", res)
	}
	// The idle connection is gone (read fails rather than blocking).
	var f Frame
	if err := c.read(idle, &f); err == nil {
		t.Fatalf("idle connection survived shutdown: %+v", f)
	}
	select {
	case <-shutdownDone:
	case <-time.After(10 * time.Second):
		t.Fatal("Shutdown did not return")
	}
	// Post-shutdown connections are refused.
	client, server := net.Pipe()
	defer client.Close()
	go srv.ServeConn(server)
	client.SetDeadline(time.Now().Add(5 * time.Second))
	WriteFrame(client, &Frame{Type: TypeHello, Version: handshakeVersion, Max: ProtocolVersion})
	if err := ReadFrame(client, &f); err == nil {
		t.Fatalf("draining server answered handshake: %+v", f)
	}
}

// TestFarmTCP is the end-to-end smoke over real sockets: a farmd-style
// server on a loopback listener, a TCP dispatcher, bit-identical
// results, and a clean shutdown.
func TestFarmTCP(t *testing.T) {
	srv := NewServer(ServerOptions{Capacity: 2, DrainTimeout: 2 * time.Second})
	ln, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	serveDone := make(chan error, 1)
	go func() { serveDone <- srv.Serve(ln) }()

	tm := fleetTiming
	tm.acquire, tm.backoffBase, tm.heartbeat = 100*time.Millisecond, 5*time.Millisecond, 50*time.Millisecond
	d := New([]string{ln.Addr().String()}, Options{timing: tm})
	defer d.Close()
	if err := d.WaitReady(10 * time.Second); err != nil {
		t.Fatal(err)
	}
	want := workload(t, nil, 0)
	got := workload(t, d, d.Lanes())
	diffCounts(t, "tcp", got, want)

	srv.Shutdown()
	select {
	case err := <-serveDone:
		if err != nil {
			t.Fatalf("Serve returned %v after Shutdown", err)
		}
	case <-time.After(10 * time.Second):
		t.Fatal("Serve did not return after Shutdown")
	}
}
