package sim

import (
	"fmt"
	"testing"

	"repro/internal/obs"
	"repro/internal/template"
)

// weighted returns a template whose content (and therefore fingerprint)
// varies with a: distinct cache entries for distinct a.
func weighted(t *testing.T, a int) *template.Template {
	t.Helper()
	tmpl, err := template.Parse(fmt.Sprintf(
		"template w%d { weight Mode { a: %d; b: 100; } }", a, a))
	if err != nil {
		t.Fatal(err)
	}
	return tmpl
}

// TestPlanCacheBounded checks the compiled-plan cache respects its bound,
// evicts in LRU order, and reports hits/misses/evictions.
func TestPlanCacheBounded(t *testing.T) {
	env := NewEnv(newToy(), 1, 1)
	defer env.Close()
	rec := obs.NewRecorder()
	env.SetRecorder(rec)
	env.plans.setCap(2)

	for i := 0; i < 4; i++ {
		run(t, env, weighted(t, i), 4)
	}
	if n := env.plans.len(); n != 2 {
		t.Fatalf("cache holds %d plans, want bound of 2", n)
	}
	snap := rec.Metrics.Snapshot()
	if got := snap.Counters["sim.plan_cache.misses"]; got != 4 {
		t.Fatalf("misses = %d, want 4", got)
	}
	if got := snap.Counters["sim.plan_cache.evictions"]; got != 2 {
		t.Fatalf("evictions = %d, want 2", got)
	}
	if got := snap.Counters["sim.plan_cache.hits"]; got != 0 {
		t.Fatalf("hits = %d, want 0", got)
	}

	// The two most recent templates are resident: re-running them hits.
	run(t, env, weighted(t, 2), 4)
	run(t, env, weighted(t, 3), 4)
	snap = rec.Metrics.Snapshot()
	if got := snap.Counters["sim.plan_cache.hits"]; got != 2 {
		t.Fatalf("hits after re-run = %d, want 2", got)
	}
	// The oldest was evicted: re-running it misses and evicts again.
	run(t, env, weighted(t, 0), 4)
	snap = rec.Metrics.Snapshot()
	if got := snap.Counters["sim.plan_cache.misses"]; got != 5 {
		t.Fatalf("misses after LRU re-run = %d, want 5", got)
	}
	if got := snap.Counters["sim.plan_cache.evictions"]; got != 3 {
		t.Fatalf("evictions after LRU re-run = %d, want 3", got)
	}
}

// TestPlanCacheContentKeyed checks the cache key is the template's
// content, not its name or pointer: a re-parse under a different name
// hits the same entry — the property that keeps cmd/farmd (which parses
// every template off the wire) from compiling per request.
func TestPlanCacheContentKeyed(t *testing.T) {
	env := NewEnv(newToy(), 1, 1)
	defer env.Close()
	rec := obs.NewRecorder()
	env.SetRecorder(rec)

	a, err := template.Parse("template first { weight Mode { a: 10; b: 90; } }")
	if err != nil {
		t.Fatal(err)
	}
	b, err := template.Parse("template second { weight Mode { a: 10; b: 90; } }")
	if err != nil {
		t.Fatal(err)
	}
	run(t, env, a, 4)
	run(t, env, b, 4)
	snap := rec.Metrics.Snapshot()
	if got := snap.Counters["sim.plan_cache.misses"]; got != 1 {
		t.Fatalf("misses = %d, want 1 (same content must share one plan)", got)
	}
	if got := snap.Counters["sim.plan_cache.hits"]; got != 1 {
		t.Fatalf("hits = %d, want 1", got)
	}
	if n := env.plans.len(); n != 1 {
		t.Fatalf("cache holds %d plans, want 1", n)
	}
}

// TestPlanCacheEvictionIsNeutral checks an evicted plan recompiles to
// the same sampling behavior: a cache bound of 1 under alternating
// templates gives bit-identical aggregates to the default bound, which
// never evicts here.
func TestPlanCacheEvictionIsNeutral(t *testing.T) {
	mk := func(bound int) []uint64 {
		env := NewEnv(newToy(), 77, 1)
		defer env.Close()
		if bound > 0 {
			env.plans.setCap(bound)
		}
		var hits []uint64
		for i := 0; i < 3; i++ {
			for j := 0; j < 2; j++ {
				c := run(t, env, weighted(t, 30+j), 50)
				hits = append(hits, c.Hits(0), c.Hits(1))
			}
		}
		return hits
	}
	resident, thrashing := mk(0), mk(1)
	for i := range resident {
		if resident[i] != thrashing[i] {
			t.Fatalf("sample %d diverged: %d != %d", i, resident[i], thrashing[i])
		}
	}
}
