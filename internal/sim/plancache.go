package sim

import (
	"container/list"
	"sync"

	"repro/internal/generator"
	"repro/internal/obs"
	"repro/internal/template"
)

// planCacheSize bounds every environment's compiled-plan cache; no
// option changes it. A full AS-CDG flow touches far fewer distinct template bodies than this
// at any one time, so CLIs never evict; the bound exists for long-lived
// daemons (cmd/farmd) that parse templates off the wire — a fresh
// pointer per request — and would otherwise retain every body ever
// simulated. What one cached plan can hold is bounded as well: its entry
// lists by the frame the template arrived in, and its decision tables at
// 256 bytes per declared parameter, full stop — a template that names any
// other parameter compiles to an error, whatever weights it sends. 256
// plans of a unit of five parameters (every unit here) are 320 KiB of
// tables, always.
const planCacheSize = 256

// planCache is a size-bounded LRU of compiled sampling plans keyed by
// template *content* (name-independent fingerprint), so two parses of
// the same source — or two sampling candidates that happen to coincide —
// share one read-only decision table.
type planCache struct {
	mu      sync.Mutex
	cap     int
	entries map[string]*list.Element
	order   *list.List // front = most recently used

	// Metric handles (nil when observability is off; all nil-safe).
	hits      *obs.Counter
	misses    *obs.Counter
	evictions *obs.Counter
}

// planEntry is one cached plan with its key (needed to unmap on evict).
type planEntry struct {
	key  string
	plan *generator.Plan
}

func newPlanCache(capacity int) *planCache {
	if capacity < 1 {
		capacity = 1
	}
	return &planCache{
		cap:     capacity,
		entries: map[string]*list.Element{},
		order:   list.New(),
	}
}

// setRecorder installs the cache's hit/miss/evict counters.
func (c *planCache) setRecorder(rec *obs.Recorder) {
	c.hits = rec.Counter("sim.plan_cache.hits")
	c.misses = rec.Counter("sim.plan_cache.misses")
	c.evictions = rec.Counter("sim.plan_cache.evictions")
}

// setCap rebounds the cache, evicting least-recently-used plans if the
// new bound is already exceeded. Only tests call it: every environment
// runs at planCacheSize, and evicted plans are simply recompiled on next
// use, so any bound is semantically neutral.
func (c *planCache) setCap(capacity int) {
	if capacity < 1 {
		capacity = 1
	}
	c.mu.Lock()
	c.cap = capacity
	c.evictOverflow()
	c.mu.Unlock()
}

// planKey is the cache identity of a template body. The nil template
// (pure default behavior) hashes to the empty key; otherwise the
// name-independent content fingerprint, so renaming a template does not
// duplicate its plan.
func planKey(tmpl *template.Template) string {
	if tmpl == nil {
		return ""
	}
	return tmpl.Fingerprint()
}

// get returns the cached plan for key, compiling via compile on a miss.
// Compilation happens under the cache lock: plans must be unique per key
// (every instance of a template shares one table), and compiles are
// per-batch, not per-instance, so contention is negligible.
func (c *planCache) get(key string, compile func() *generator.Plan) *generator.Plan {
	c.mu.Lock()
	defer c.mu.Unlock()
	if el, ok := c.entries[key]; ok {
		c.order.MoveToFront(el)
		c.hits.Inc()
		return el.Value.(*planEntry).plan
	}
	c.misses.Inc()
	p := compile()
	c.entries[key] = c.order.PushFront(&planEntry{key: key, plan: p})
	c.evictOverflow()
	return p
}

// evictOverflow drops least-recently-used entries down to the bound.
// Caller holds c.mu.
func (c *planCache) evictOverflow() {
	for c.order.Len() > c.cap {
		last := c.order.Back()
		c.order.Remove(last)
		delete(c.entries, last.Value.(*planEntry).key)
		c.evictions.Inc()
	}
}

// len reports the number of cached plans (for tests).
func (c *planCache) len() int {
	c.mu.Lock()
	defer c.mu.Unlock()
	return c.order.Len()
}
