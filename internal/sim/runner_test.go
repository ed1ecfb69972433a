package sim

import (
	"errors"
	"sync/atomic"
	"testing"

	"repro/internal/coverage"
	"repro/internal/obs"
)

// TestClosedEnvReturnsErrClosed checks every simulation entry point
// reports ErrClosed — rather than hanging on a closed scheduler or
// panicking — after Close.
func TestClosedEnvReturnsErrClosed(t *testing.T) {
	env := Env2Workers(t)
	run(t, env, modeB(t), 10) // env works before Close
	env.Close()
	env.Close() // idempotent

	if _, err := env.Submit(modeB(t), 10); !errors.Is(err, ErrClosed) {
		t.Fatalf("Submit after Close: err = %v, want ErrClosed", err)
	}
	if _, err := env.Run(modeB(t), 10); !errors.Is(err, ErrClosed) {
		t.Fatalf("Run after Close: err = %v, want ErrClosed", err)
	}
	if _, err := env.Run(nil, 1); !errors.Is(err, ErrClosed) {
		t.Fatalf("sequential Run after Close: err = %v, want ErrClosed", err)
	}
	if _, err := env.BuildCorpus(10); !errors.Is(err, ErrClosed) {
		t.Fatalf("BuildCorpus after Close: err = %v, want ErrClosed", err)
	}
	if err := env.RunChunkInto(modeB(t), 1, 0, 10, coverage.NewCountsFor(env.Unit().Model())); !errors.Is(err, ErrClosed) {
		t.Fatalf("RunChunkInto after Close: err = %v, want ErrClosed", err)
	}
}

// Env2Workers builds a 2-worker toy env (helper so the closed test hits
// both the scheduler and the sequential Run paths).
func Env2Workers(t *testing.T) *Env {
	t.Helper()
	return NewEnv(newToy(), 1, 2)
}

func TestRunChunkRejectsBadRange(t *testing.T) {
	env := NewEnv(newToy(), 1, 1)
	defer env.Close()
	dst := coverage.NewCountsFor(env.Unit().Model())
	if err := env.RunChunkInto(nil, 1, -1, 3, dst); err == nil {
		t.Fatal("negative lo accepted")
	}
	if err := env.RunChunkInto(nil, 1, 5, 3, dst); err == nil {
		t.Fatal("inverted range accepted")
	}
}

// TestRunChunkRelocatable is the farm's core determinism property: a
// chunk re-executed in a *different* environment (different base seed,
// different process in real deployments) from just (template, seed
// state, index range) contributes exactly the bits the originating
// scheduler would have computed.
func TestRunChunkRelocatable(t *testing.T) {
	env := NewEnv(newToy(), 5, 4)
	defer env.Close()
	base := env.Unit().BaseTemplates()[0]
	job := submit(t, env, base, 137)
	want := job.Wait()

	worker := NewEnv(newToy(), 999, 1) // unrelated seed: RunChunkInto ignores it
	defer worker.Close()
	got := coverage.NewCountsFor(worker.Unit().Model())
	for _, r := range [][2]int{{0, 50}, {50, 51}, {51, 137}} {
		if err := worker.RunChunkInto(job.tmpl, job.seedState, r[0], r[1], got); err != nil {
			t.Fatal(err)
		}
	}
	if got.Sims() != want.Sims() || got.Hits(0) != want.Hits(0) || got.Hits(1) != want.Hits(1) {
		t.Fatalf("relocated chunks diverged: got %d/%d/%d, want %d/%d/%d",
			got.Sims(), got.Hits(0), got.Hits(1), want.Sims(), want.Hits(0), want.Hits(1))
	}
}

// envRunner relocates chunks into a second environment via RunChunkInto
// — an in-process stand-in for a farm worker daemon.
type envRunner struct {
	env     *Env
	invoked atomic.Int64
}

func (r *envRunner) RunChunkInto(c RemoteChunk, dst *coverage.Counts) error {
	r.invoked.Add(1)
	return r.env.RunChunkInto(c.Template, c.Seed, c.Lo, c.Hi, dst)
}

// errRunner always fails, forcing the local fallback path.
type errRunner struct{ invoked atomic.Int64 }

func (r *errRunner) RunChunkInto(RemoteChunk, *coverage.Counts) error {
	r.invoked.Add(1)
	return errors.New("worker unreachable")
}

// badRunner reports success but merges only the chunk's first instance;
// the scheduler must detect the short aggregate and discard it.
type badRunner struct{ env *Env }

func (r badRunner) RunChunkInto(c RemoteChunk, dst *coverage.Counts) error {
	return r.env.RunChunkInto(c.Template, c.Seed, c.Lo, c.Lo+1, dst)
}

// runWithRunner runs a fixed workload with an optional ChunkRunner
// attached and returns the aggregate of both batches.
func runWithRunner(t *testing.T, r ChunkRunner, lanes, workers int) *coverage.Counts {
	t.Helper()
	env := NewEnv(newToy(), 123, workers)
	defer env.Close()
	if r != nil {
		env.AttachRunner(r, lanes)
	}
	base := env.Unit().BaseTemplates()[0]
	total := coverage.NewCountsFor(env.Unit().Model())
	jobs := []*Job{submit(t, env, base, 500), submit(t, env, modeB(t), 300)}
	for _, j := range jobs {
		total.Merge(j.Wait())
	}
	return total
}

func countsEqual(a, b *coverage.Counts) bool {
	return a.Sims() == b.Sims() && a.Hits(0) == b.Hits(0) && a.Hits(1) == b.Hits(1)
}

// TestChunkRunnerBitIdentical checks attaching a remote backend changes
// nothing about results: local-only, remote-assisted, failing-remote and
// malformed-remote runs of the same seed agree bit for bit — the
// acceptance criterion of the farm's determinism contract.
func TestChunkRunnerBitIdentical(t *testing.T) {
	want := runWithRunner(t, nil, 0, 4)

	workerEnv := NewEnv(newToy(), 1, 1)
	defer workerEnv.Close()
	remote := &envRunner{env: workerEnv}
	if got := runWithRunner(t, remote, 2, 4); !countsEqual(got, want) {
		t.Fatalf("remote-assisted run diverged: %d/%d/%d vs %d/%d/%d",
			got.Sims(), got.Hits(0), got.Hits(1), want.Sims(), want.Hits(0), want.Hits(1))
	}

	failing := &errRunner{}
	if got := runWithRunner(t, failing, 2, 4); !countsEqual(got, want) {
		t.Fatalf("failing-remote run diverged")
	}
	if got := runWithRunner(t, badRunner{workerEnv}, 2, 4); !countsEqual(got, want) {
		t.Fatalf("malformed-remote run diverged")
	}
}

// TestChunkRunnerObsAccounting drives a workload where remote lanes
// dominate (1 local worker, 4 remote lanes) and checks the scheduler's
// farm-side accounting: every chunk lands exactly once, remote + local
// chunk counts add up, and failures surface as fallbacks, not as lost
// or doubled instances.
func TestChunkRunnerObsAccounting(t *testing.T) {
	const n = 2000
	for _, tc := range []struct {
		name   string
		runner ChunkRunner
	}{
		{"healthy", nil}, // replaced below with an envRunner
		{"failing", &errRunner{}},
	} {
		t.Run(tc.name, func(t *testing.T) {
			env := NewEnv(newToy(), 9, 1)
			defer env.Close()
			rec := obs.NewRecorder()
			env.SetRecorder(rec)
			r := tc.runner
			if r == nil {
				workerEnv := NewEnv(newToy(), 1, 1)
				defer workerEnv.Close()
				r = &envRunner{env: workerEnv}
			}
			env.AttachRunner(r, 4)
			c := run(t, env, env.Unit().BaseTemplates()[0], n)
			if c.Sims() != n {
				t.Fatalf("sims = %d, want %d (chunks lost or doubled)", c.Sims(), n)
			}
			snap := rec.Metrics.Snapshot()
			if got := snap.Counters["sim.instances_completed"]; got != n {
				t.Fatalf("instances_completed = %d, want %d", got, n)
			}
			remote := snap.Counters["sim.chunks_remote"]
			fallbacks := snap.Counters["sim.remote_fallbacks"]
			if tc.name == "failing" && remote != 0 {
				t.Fatalf("failing runner credited with %d remote chunks", remote)
			}
			if tc.name == "healthy" && fallbacks != 0 {
				t.Fatalf("healthy runner charged %d fallbacks", fallbacks)
			}
			t.Logf("%s: %d chunks, %d remote, %d fallbacks",
				tc.name, snap.Counters["sim.chunks_completed"], remote, fallbacks)
		})
	}
}
