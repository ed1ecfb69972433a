package farm

import (
	"runtime"
	"sync"
	"testing"
	"time"

	"repro/internal/coverage"
	"repro/internal/duv/iounit"
	"repro/internal/failpoint"
	"repro/internal/obs"
	"repro/internal/sim"
	"repro/internal/template"
)

// chunkPlan builds a fixed two-batch chunk list with explicit identity,
// the way the scheduler would shard a campaign. Chunks are driven
// through the dispatcher directly: on a single-core runner an
// environment's local workers win every race for the task queue, so
// only direct driving makes remote engagement deterministic.
func chunkPlan(t *testing.T, campaign string, perTemplate, size int) ([]sim.RemoteChunk, int) {
	t.Helper()
	unit := iounit.New()
	events := unit.Model().Size()
	templates := []*template.Template{unit.BaseTemplates()[0], altTemplate(t)}
	var chunks []sim.RemoteChunk
	id := uint64(0)
	for b, tmpl := range templates {
		for i := 0; i < perTemplate; i++ {
			id++
			chunks = append(chunks, sim.RemoteChunk{
				Unit: iounit.UnitName, Template: tmpl, Seed: 97,
				Lo: i * size, Hi: (i + 1) * size, Events: events,
				Campaign: campaign, Batch: uint64(b + 1), Chunk: id,
			})
		}
	}
	return chunks, events
}

// localCounts executes every chunk on a local environment — the ground
// truth any fault schedule must reproduce bit for bit.
func localCounts(t *testing.T, env *sim.Env, chunks []sim.RemoteChunk, events int) *coverage.Counts {
	t.Helper()
	want := coverage.NewCounts(events)
	for _, c := range chunks {
		if err := env.RunChunkInto(c.Template, c.Seed, c.Lo, c.Hi, want); err != nil {
			t.Fatal(err)
		}
	}
	return want
}

// driveChunks pushes the chunks through the dispatcher with the given
// driver concurrency, falling back to local execution on failure
// exactly like the scheduler's remote lanes, and returns the merged
// aggregate.
func driveChunks(t *testing.T, d *Dispatcher, env *sim.Env, chunks []sim.RemoteChunk, events, drivers int) *coverage.Counts {
	t.Helper()
	total := coverage.NewCounts(events)
	var mu sync.Mutex
	ch := make(chan sim.RemoteChunk)
	var wg sync.WaitGroup
	for i := 0; i < drivers; i++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			dst := coverage.NewCounts(events)
			for c := range ch {
				if err := d.RunChunkInto(c, dst); err != nil {
					if err := env.RunChunkInto(c.Template, c.Seed, c.Lo, c.Hi, dst); err != nil {
						t.Errorf("local fallback: %v", err)
						return
					}
				}
			}
			mu.Lock()
			total.Merge(dst)
			mu.Unlock()
		}()
	}
	for _, c := range chunks {
		ch <- c
	}
	close(ch)
	wg.Wait()
	return total
}

// waitGoroutines polls until the goroutine count returns to (at most)
// the baseline — the no-leak assertion every fault schedule must meet
// after teardown.
func waitGoroutines(t *testing.T, base int) {
	t.Helper()
	deadline := time.Now().Add(5 * time.Second)
	for {
		n := runtime.NumGoroutine()
		if n <= base {
			return
		}
		if time.Now().After(deadline) {
			buf := make([]byte, 1<<20)
			t.Fatalf("goroutine leak: %d live, baseline %d\n%s", n, base, buf[:runtime.Stack(buf, false)])
		}
		time.Sleep(20 * time.Millisecond)
	}
}

// TestFaultMatrix sweeps every farm injection point with every
// recoverable policy and asserts the one invariant that matters:
// whatever faults fire, wherever they fire, the run completes and its
// aggregate is bit-identical to a clean local execution — and nothing
// leaks. Corrupt policies at result-carrying points are caught by the
// integrity audit (AuditFraction 1), which substitutes local ground
// truth; every other policy resolves through retry, hedging-free
// timeout, or local fallback.
func TestFaultMatrix(t *testing.T) {
	points := []struct {
		name   string
		server bool // armed on the workers' registries, not the dispatcher's
	}{
		{"farm/dial", false},
		{"farm/handshake", false},
		{"farm/rpc_write", false},
		{"farm/rpc_read", false},
		{"farm/serve_read", true},
		{"farm/serve_write", true},
		{"farm/serve_chunk", true},
	}
	policies := []string{"error:0.5:4", "delay(3ms):0.5:4", "drop:0.5:4", "corrupt:0.5:4"}

	env := sim.NewEnv(iounit.New(), 1, 2)
	defer env.Close()
	chunks, events := chunkPlan(t, "c-fault-matrix", 5, 80)
	want := localCounts(t, env, chunks, events)
	base := runtime.NumGoroutine()

	for _, pt := range points {
		for _, spec := range policies {
			pol, err := failpoint.ParsePolicy(spec)
			if err != nil {
				t.Fatal(err)
			}
			t.Run(pt.name+"/"+spec, func(t *testing.T) {
				rec := obs.NewRecorder()
				lb := NewLoopback()
				addrs := make([]string, 3)
				servers := make([]*Server, 3)
				for i := range addrs {
					fp := failpoint.New(int64(100 + i))
					if pt.server {
						fp.Set(pt.name, pol)
					}
					servers[i] = NewServer(ServerOptions{Capacity: 2, DrainTimeout: time.Second, FP: fp})
					addrs[i] = string(rune('a' + i))
					lb.Add(addrs[i], servers[i], Faults{})
				}
				opts := testOptions(lb.Dial, rec)
				opts.ChunkTimeout = 300 * time.Millisecond
				opts.AuditFraction = 1
				opts.breaker.cooldown = 40 * time.Millisecond
				opts.FP = failpoint.New(7)
				if !pt.server {
					opts.FP.Set(pt.name, pol)
				}
				d := New(addrs, opts)
				t.Cleanup(d.Close)
				t.Cleanup(func() {
					for _, s := range servers {
						s.Shutdown()
					}
				})
				if err := d.WaitReady(10 * time.Second); err != nil {
					t.Fatal(err)
				}
				got := driveChunks(t, d, env, chunks, events, 2)
				diffCounts(t, pt.name+"/"+spec, got, want)
			})
		}
	}
	waitGoroutines(t, base)
}

// TestByzantineFleetAcceptance is the robustness acceptance criterion:
// a three-worker fleet where one worker silently corrupts results
// (byzantine), one straggles at 10× fleet latency, and one flaps its
// connections every few hundred milliseconds must complete a campaign
// workload bit-identically to a clean local run — with the byzantine
// worker permanently quarantined (farm.workers_quarantined >= 1) and
// hedging's duplicated work bounded at 15% of total simulations.
func TestByzantineFleetAcceptance(t *testing.T) {
	const drivers = 4
	base := runtime.NumGoroutine()
	env := sim.NewEnv(iounit.New(), 1, 2)
	defer env.Close()
	chunks, events := chunkPlan(t, "c-byzantine", 120, 80)
	want := localCounts(t, env, chunks, events)

	rec := obs.NewRecorder()
	lb := NewLoopback()

	// Worker a is byzantine: every served chunk's hit array is silently
	// perturbed — well-formed frames, wrong numbers. Only the audit can
	// tell.
	byzFP := failpoint.New(11)
	byzFP.Set("farm/serve_chunk", failpoint.Policy{Kind: failpoint.KindCorrupt})
	fleets := []struct {
		fp       *failpoint.Registry
		faults   Faults
		capacity int
	}{
		{byzFP, Faults{}, 4},
		// The straggler's latency sits an order of magnitude beyond any
		// clean exchange even under the race detector's overhead, and its
		// single connection keeps its slow samples a small minority of the
		// fleet's latency ring — so the hedge budget (2 x fleet p95)
		// always undercuts it. A straggler with enough capacity to serve
		// most of the fleet's traffic IS the p95 and is not hedgeable.
		{nil, Faults{Delay: 150 * time.Millisecond}, 1},
		{nil, Faults{FlapEvery: 150 * time.Millisecond}, 4}, // flappy: dies and rejoins
	}
	addrs := make([]string, len(fleets))
	servers := make([]*Server, len(fleets))
	for i, f := range fleets {
		fp := f.fp
		if fp == nil {
			fp = failpoint.New(int64(i))
		}
		servers[i] = NewServer(ServerOptions{Capacity: f.capacity, DrainTimeout: time.Second, FP: fp})
		addrs[i] = string(rune('a' + i))
		lb.Add(addrs[i], servers[i], f.faults)
	}
	opts := testOptions(lb.Dial, rec)
	opts.Hedge = 2
	opts.AuditFraction = 1
	// The fixture heartbeat (20ms interval doubling as the ping deadline)
	// would evict the straggler's connection at every idle pass — it
	// would never serve a chunk, and there would be nothing to hedge.
	// Liveness discovery is not under test here, so disable it.
	opts.Heartbeat = -1
	opts.FP = failpoint.New(1)
	opts.breaker.cooldown = 100 * time.Millisecond
	// The straggler is hedging's job here, not the breaker's: an
	// unreachable latency threshold keeps the quarantine assertion
	// pinned on the byzantine worker.
	opts.breaker.latencyFactor = 1000
	d := New(addrs, opts)
	defer d.Close()
	defer func() {
		for _, s := range servers {
			s.Shutdown()
		}
	}()
	if err := d.WaitReady(10 * time.Second); err != nil {
		t.Fatal(err)
	}

	got := driveChunks(t, d, env, chunks, events, drivers)
	diffCounts(t, "byzantine fleet", got, want)

	// The byzantine worker must have been caught by the audit and
	// quarantined permanently.
	if n := rec.Counter("farm.audit_mismatches").Value(); n == 0 {
		t.Fatal("no audit mismatches recorded: the byzantine worker was never caught")
	}
	if g := rec.Gauge("farm.workers_quarantined").Value(); g < 1 {
		t.Fatalf("farm.workers_quarantined = %d, want >= 1", g)
	}
	var byz *WorkerHealth
	for _, h := range d.Health() {
		if h.Addr == "a" {
			hh := h
			byz = &hh
		}
	}
	if byz == nil || byz.State != "quarantined" || !byz.Permanent {
		t.Fatalf("byzantine worker health = %+v, want permanent quarantine", byz)
	}

	// Hedging's duplicated work stays bounded whatever it chose to do:
	// at most 15% of the workload's simulations. (Whether hedging
	// engages at all in this topology depends on how badly the two
	// non-byzantine workers pollute the latency ring; the dedicated
	// straggler test below asserts engagement in a topology where it is
	// deterministic.)
	hedged := rec.Counter("farm.hedged_sims").Value()
	totalSims := uint64(0)
	for _, c := range chunks {
		totalSims += uint64(c.Hi - c.Lo)
	}
	if ratio := float64(hedged) / float64(totalSims); ratio > 0.15 {
		t.Fatalf("hedged duplicate-work ratio %.3f exceeds 0.15 (hedged %d of %d sims)", ratio, hedged, totalSims)
	}
	t.Logf("hedges=%d wins=%d duplicate-work=%.2f%% quarantined=%d",
		rec.Counter("farm.hedges").Value(), rec.Counter("farm.hedge_wins").Value(),
		100*float64(hedged)/float64(totalSims),
		rec.Gauge("farm.workers_quarantined").Value())

	d.Close()
	for _, s := range servers {
		s.Shutdown()
	}
	waitGoroutines(t, base)
}

// TestHedgedStragglerExecution pins down hedged chunk execution in the
// topology where it must engage: two clean workers and one straggler
// whose single connection answers an order of magnitude slower than the
// fleet p95. The straggler's connection is the last one pooled and the
// pool is FIFO, so the latency ring warms up entirely from fast samples
// before the straggler ever starts an exchange — the chunk unlucky
// enough to start on it is hedged onto a clean lane, the hedge wins, and
// the aggregate stays bit-identical with bounded duplicate work.
func TestHedgedStragglerExecution(t *testing.T) {
	const drivers = 8
	base := runtime.NumGoroutine()
	env := sim.NewEnv(iounit.New(), 1, 2)
	defer env.Close()
	chunks, events := chunkPlan(t, "c-hedge", 120, 80)
	want := localCounts(t, env, chunks, events)

	rec := obs.NewRecorder()
	lb := NewLoopback()
	// Sixteen fast connections, as many as the ring needs samples before
	// hedging arms (healthSet.latencyP95), and the straggler's one, pooled
	// last because its handshake is delayed like every frame it writes.
	caps := []int{8, 1, 8}
	faults := []Faults{{}, {Delay: 300 * time.Millisecond}, {}}
	addrs := make([]string, 3)
	servers := make([]*Server, 3)
	for i := range addrs {
		servers[i] = NewServer(ServerOptions{Capacity: caps[i], DrainTimeout: time.Second, FP: failpoint.New(int64(i))})
		addrs[i] = string(rune('a' + i))
		lb.Add(addrs[i], servers[i], faults[i])
	}
	opts := testOptions(lb.Dial, rec)
	opts.Hedge = 2
	opts.Heartbeat = -1 // see TestByzantineFleetAcceptance
	opts.FP = failpoint.New(1)
	// Hedging, not the breaker, is under test: keep the straggler
	// routable so there is something to hedge.
	opts.breaker.latencyFactor = 1000
	d := New(addrs, opts)
	defer d.Close()
	defer func() {
		for _, s := range servers {
			s.Shutdown()
		}
	}()
	for deadline := time.Now().Add(10 * time.Second); ; time.Sleep(5 * time.Millisecond) {
		h := d.Health()
		if len(h) == 3 && h[0].Conns == caps[0] && h[1].Conns == caps[1] && h[2].Conns == caps[2] {
			break
		}
		if time.Now().After(deadline) {
			t.Fatalf("fleet never fully connected: %+v", h)
		}
	}

	// Engagement must depend neither on how fast a chunk simulates nor on
	// which idle connection a hedge borrows (an unscored worker ranks
	// healthiest, and a hedge that loses evicts its connection). One
	// driver walks the pool first: sixteen fast exchanges, none hedged
	// because the ring is still filling, then the straggler's connection
	// with the ring exactly warm. The rest of the plan runs concurrently.
	got := driveChunks(t, d, env, chunks[:17], events, 1)
	if wins := rec.Counter("farm.hedge_wins").Value(); wins != 1 {
		t.Fatalf("the straggler's first exchange: hedge wins = %d, want 1 (hedges=%d)", wins, rec.Counter("farm.hedges").Value())
	}
	got.Merge(driveChunks(t, d, env, chunks[17:], events, drivers))
	diffCounts(t, "hedged straggler", got, want)

	hedges := rec.Counter("farm.hedges").Value()
	wins := rec.Counter("farm.hedge_wins").Value()
	hedged := rec.Counter("farm.hedged_sims").Value()
	totalSims := uint64(0)
	for _, c := range chunks {
		totalSims += uint64(c.Hi - c.Lo)
	}
	if hedges == 0 || wins == 0 {
		t.Fatalf("hedging never engaged (hedges=%d wins=%d): straggler unmitigated", hedges, wins)
	}
	if ratio := float64(hedged) / float64(totalSims); ratio > 0.15 {
		t.Fatalf("hedged duplicate-work ratio %.3f exceeds 0.15 (hedged %d of %d sims)", ratio, hedged, totalSims)
	}
	// The straggler was slow, not wrong: hedging must have routed around
	// it without the breaker opening.
	for _, h := range d.Health() {
		if h.Addr == "b" && h.State == "quarantined" {
			t.Fatalf("straggler was quarantined, want hedged around: %+v", h)
		}
	}
	t.Logf("hedges=%d wins=%d duplicate-work=%.2f%%", hedges, wins, 100*float64(hedged)/float64(totalSims))

	d.Close()
	for _, s := range servers {
		s.Shutdown()
	}
	waitGoroutines(t, base)
}
