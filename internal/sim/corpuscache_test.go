package sim

import (
	"context"
	"errors"
	"path/filepath"
	"reflect"
	"testing"

	"repro/internal/coverage"
	"repro/internal/duv"
	"repro/internal/duv/iounit"
	"repro/internal/duv/l3cache"
	"repro/internal/journal"
	"repro/internal/obs"
)

// corpusRun is one corpus build on a fresh environment sharing a cache.
type corpusRun struct {
	unit             duv.DUV
	seed             uint64
	sims             int
	batches, envSims uint64 // counters restored before the build
}

// build runs r against cache and returns the repository, the
// environment's final counters and the build's metrics.
func (r corpusRun) build(t *testing.T, cache *CorpusCache) (*coverage.Repository, [2]uint64, obs.Snapshot) {
	t.Helper()
	env := NewEnv(r.unit, r.seed, 2)
	defer env.Close()
	rec := obs.NewRecorder()
	env.SetRecorder(rec)
	env.SetCorpusCache(cache)
	env.RestoreCounters(r.batches, r.envSims)
	repo, err := env.BuildCorpus(r.sims)
	if err != nil {
		t.Fatal(err)
	}
	return repo, [2]uint64{env.Batches(), env.Simulations()}, rec.Metrics.Snapshot()
}

// TestCorpusCacheKey: a build replays a cached corpus only when unit,
// seed, budget and starting counters all match, and the replay is the
// live build — same repository, same counters — without simulating.
func TestCorpusCacheKey(t *testing.T) {
	cache := NewCorpusCache()
	base := corpusRun{unit: iounit.New(), seed: 21, sims: 20}
	want, wantCounters, cold := base.build(t, cache)
	if cold.Counters["sim.corpus_cache.misses"] != 1 || cold.Counters["sim.corpus_cache.hits"] != 0 {
		t.Fatalf("cold build: counters %v, want one miss", cold.Counters)
	}

	got, counters, warm := base.build(t, cache)
	if warm.Counters["sim.corpus_cache.hits"] != 1 || warm.Counters["sim.corpus_cache.misses"] != 0 {
		t.Fatalf("warm build: counters %v, want one hit", warm.Counters)
	}
	if n := warm.Counters["sim.instances_completed"]; n != 0 {
		t.Fatalf("warm build simulated %d instances, want 0", n)
	}
	if !reflect.DeepEqual(got, want) || counters != wantCounters {
		t.Fatalf("cached corpus differs from the live build (counters %v, want %v)", counters, wantCounters)
	}

	for name, r := range map[string]corpusRun{
		"seed":    {unit: iounit.New(), seed: 22, sims: 20},
		"sims":    {unit: iounit.New(), seed: 21, sims: 21},
		"unit":    {unit: l3cache.New(), seed: 21, sims: 20},
		"counter": {unit: iounit.New(), seed: 21, sims: 20, batches: 1, envSims: 20},
	} {
		if _, _, snap := r.build(t, cache); snap.Counters["sim.corpus_cache.hits"] != 0 {
			t.Errorf("%s: a different key hit the cache", name)
		}
	}
}

// TestCorpusCacheFillRule: only a build that completed, uncanceled and
// without error, from counters (0, 0) is stored.
func TestCorpusCacheFillRule(t *testing.T) {
	cache := NewCorpusCache()

	// Failed: the journal append of the second template dies.
	env := NewEnv(iounit.New(), 21, 2)
	env.SetCorpusCache(cache)
	cur, err := env.OpenCorpusJournal(filepath.Join(t.TempDir(), "corpus.journal"), 20, nil)
	if err != nil {
		t.Fatal(err)
	}
	cur.Writer().FailAppends(2, 0)
	if _, err := env.BuildCorpusJournaled(20, cur); !errors.Is(err, journal.ErrInjected) {
		t.Fatalf("failed build: err = %v, want ErrInjected", err)
	}
	cur.Close()
	env.Close()

	// Canceled while the first instance simulates.
	unit := newBlockDUV()
	env = NewEnv(unit, 21, 1)
	env.SetCorpusCache(cache)
	ctx, cancel := context.WithCancel(context.Background())
	env.SetContext(ctx)
	errc := make(chan error, 1)
	go func() {
		_, err := env.BuildCorpus(40)
		errc <- err
	}()
	<-unit.started
	cancel()
	close(unit.gate)
	if err := <-errc; !errors.Is(err, context.Canceled) {
		t.Fatalf("canceled build: err = %v, want context.Canceled", err)
	}
	env.Close()

	// Completed, but started from other counters.
	corpusRun{unit: iounit.New(), seed: 21, sims: 20, batches: 3, envSims: 60}.build(t, cache)

	if n := cache.len(); n != 0 {
		t.Fatalf("cache holds %d builds after failed, canceled and offset builds, want 0", n)
	}
	corpusRun{unit: iounit.New(), seed: 21, sims: 20}.build(t, cache)
	if n := cache.len(); n != 1 {
		t.Fatalf("cache holds %d builds after a complete build, want 1", n)
	}
}

// TestCorpusCacheEvicts: the cache keeps its bound, evicts the least
// recently used build and counts it.
func TestCorpusCacheEvicts(t *testing.T) {
	cache := newCorpusCache(2)
	seed := func(s uint64) corpusRun { return corpusRun{unit: iounit.New(), seed: s, sims: 5} }
	var evictions uint64
	for _, s := range []uint64{1, 2, 3} {
		_, _, snap := seed(s).build(t, cache)
		evictions += snap.Counters["sim.corpus_cache.evictions"]
	}
	if n := cache.len(); n != 2 || evictions != 1 {
		t.Fatalf("cache holds %d builds after %d evictions, want 2 after 1", n, evictions)
	}
	if _, _, snap := seed(1).build(t, cache); snap.Counters["sim.corpus_cache.misses"] != 1 ||
		snap.Counters["sim.corpus_cache.evictions"] != 1 {
		t.Fatalf("evicted seed 1: counters %v, want a miss that evicts again", snap.Counters)
	}
	if _, _, snap := seed(3).build(t, cache); snap.Counters["sim.corpus_cache.hits"] != 1 {
		t.Fatalf("resident seed 3: counters %v, want a hit", snap.Counters)
	}
}
