package farm

import (
	"runtime"
	"sync"
	"testing"
	"time"

	"repro/internal/coverage"
	"repro/internal/duv/iounit"
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

// TestFaultMatrix runs the chunk plan on a fleet where two of three
// workers misbehave as one row of the loopback's Faults says, and
// asserts the one invariant that matters: whatever the transport does,
// the run completes, its aggregate is bit-identical to a clean local
// execution, and nothing leaks. Corrupt results are caught by the
// integrity audit (AuditFraction 1), which substitutes local ground
// truth; every other fault resolves through retry, timeout, or local
// fallback. Each row names the counter that shows its fault reached
// the dispatcher (a duplicate is skipped without one); a fault the
// short run outpaced must still show within a few seconds.
func TestFaultMatrix(t *testing.T) {
	const deadline = 300 * time.Millisecond
	rows := []struct {
		name   string
		faults Faults
		fired  string
	}{
		{"drop", Faults{DropAfterFrames: 3}, "farm.conn_evictions"},
		{"duplicate", Faults{DuplicateEvery: 2}, ""},
		{"delay_past_deadline", Faults{Delay: deadline + 100*time.Millisecond}, "farm.chunk_errors"},
		{"failed_dials", Faults{FailDials: 3}, "farm.dial_failures"},
		{"flapping", Faults{FlapEvery: 50 * time.Millisecond}, "farm.conn_evictions"},
		{"corrupt", Faults{Corrupt: true}, "farm.audit_mismatches"},
	}

	env := sim.NewEnv(iounit.New(), 1, 2)
	defer env.Close()
	chunks, events := chunkPlan(t, "c-fault-matrix", 5, 80)
	want := localCounts(t, env, chunks, events)
	base := runtime.NumGoroutine()

	for _, row := range rows {
		t.Run(row.name, func(t *testing.T) {
			rec := obs.NewRecorder()
			lb := NewLoopback()
			addrs := []string{"a", "b", "c"}
			servers := make([]*Server, len(addrs))
			for i, addr := range addrs {
				servers[i] = NewServer(ServerOptions{Capacity: 2, DrainTimeout: time.Second})
				f := row.faults
				if i == len(addrs)-1 {
					f = Faults{} // one healthy worker, so WaitReady returns
				}
				lb.Add(addr, servers[i], f)
			}
			opts := testOptions(lb.Dial, rec)
			opts.timing.chunk = deadline
			opts.AuditFraction = 1
			opts.breaker.cooldown = 40 * time.Millisecond
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
			diffCounts(t, row.name, got, want)
			for giveUp := time.Now().Add(5 * time.Second); row.fired != "" && rec.Counter(row.fired).Value() == 0; {
				if time.Now().After(giveUp) {
					t.Fatalf("%s = 0: the fault never reached the dispatcher", row.fired)
				}
				time.Sleep(5 * time.Millisecond)
			}
		})
	}
	waitGoroutines(t, base)
}

// TestByzantineFleetAcceptance is the robustness acceptance criterion:
// a three-worker fleet where one worker silently corrupts results
// (byzantine), one straggles at 10× fleet latency, and one flaps its
// connections every few hundred milliseconds must complete a campaign
// workload bit-identically to a clean local run — with the byzantine
// worker permanently quarantined (farm.workers_quarantined >= 1).
func TestByzantineFleetAcceptance(t *testing.T) {
	const drivers = 4
	base := runtime.NumGoroutine()
	env := sim.NewEnv(iounit.New(), 1, 2)
	defer env.Close()
	chunks, events := chunkPlan(t, "c-byzantine", 120, 80)
	want := localCounts(t, env, chunks, events)

	rec := obs.NewRecorder()
	lb := NewLoopback()

	// Worker a is byzantine: every result it carries has one hit count
	// raised — well-formed frames, wrong numbers. Only the audit can
	// tell.
	fleets := []struct {
		faults   Faults
		capacity int
	}{
		{Faults{Corrupt: true}, 4},
		{Faults{Delay: 150 * time.Millisecond}, 1},     // straggler
		{Faults{FlapEvery: 150 * time.Millisecond}, 4}, // flappy: dies and rejoins
	}
	addrs := make([]string, len(fleets))
	servers := make([]*Server, len(fleets))
	for i, f := range fleets {
		servers[i] = NewServer(ServerOptions{Capacity: f.capacity, DrainTimeout: time.Second})
		addrs[i] = string(rune('a' + i))
		lb.Add(addrs[i], servers[i], f.faults)
	}
	opts := testOptions(lb.Dial, rec)
	opts.AuditFraction = 1
	// The fixture heartbeat (20ms interval doubling as the ping deadline)
	// would evict the straggler's connection at every idle pass — it
	// would never serve a chunk. Liveness discovery is not under test
	// here, so disable it.
	opts.timing.heartbeat = 0
	opts.breaker.cooldown = 100 * time.Millisecond
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

	t.Logf("audit mismatches=%d quarantined=%d",
		rec.Counter("farm.audit_mismatches").Value(), rec.Gauge("farm.workers_quarantined").Value())

	d.Close()
	for _, s := range servers {
		s.Shutdown()
	}
	waitGoroutines(t, base)
}
