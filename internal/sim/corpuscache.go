package sim

import (
	"container/list"
	"slices"
	"strconv"
	"strings"
	"sync"

	"repro/internal/template"
)

// corpusCacheSize bounds a CorpusCache. An entry is one finished corpus:
// a record per base template, each holding one hit count per coverage
// event. The largest built-in corpus is the IFU's, 5 templates × 259
// events × 8 B ≈ 10 KiB of counts, so a full cache holds at most
// 64 × 10 KiB ≈ 650 KiB of counts plus the per-record names and keys —
// well under a megabyte whatever campaigns a daemon is sent. A service
// running more distinct (unit, seed, budget) corpora than this at once
// rebuilds the least recently used ones; any bound is semantically
// neutral.
const corpusCacheSize = 64

// CorpusCache is a bounded LRU of finished "Before CDG" corpus builds,
// shared by every environment it is installed on (SetCorpusCache). A
// corpus is a pure function of the unit, its base suite, the seed, the
// budget and the seeding counters the build started from, so a build
// whose key is cached hands the stored per-template records to
// RunBatches as its precomputed records, which it replays the way it
// replays a journal — the repository, the environment's counters and
// the journal come out byte-identical to a live build, without
// simulating. That precomputed-records input is the seam for any other
// source of finished batches (an observation store, a corpus artifact
// on a service's data root). Safe for concurrent use; the zero
// value is not usable, create one with NewCorpusCache. A nil cache
// never hits and stores nothing.
type CorpusCache struct {
	mu      sync.Mutex
	cap     int
	entries map[corpusKey]*list.Element
	order   *list.List // front = most recently used
}

// corpusKey is everything a corpus build's records depend on.
type corpusKey struct {
	unit            string
	events          int
	suite           string // source text of the base templates, in order (suiteKey)
	seed            uint64
	simsPerTemplate int
	batches         uint64 // environment counters when the build started
	envSims         uint64
}

// corpusEntry is one cached build with its key (needed to unmap on evict).
// recs is never mutated once stored.
type corpusEntry struct {
	key  corpusKey
	recs []BatchRec
}

// NewCorpusCache returns an empty cache bounded at corpusCacheSize builds.
func NewCorpusCache() *CorpusCache { return newCorpusCache(corpusCacheSize) }

func newCorpusCache(capacity int) *CorpusCache {
	return &CorpusCache{
		cap:     max(capacity, 1),
		entries: map[corpusKey]*list.Element{},
		order:   list.New(),
	}
}

// suiteKey identifies a base suite by its templates' source text
// (template.Parse round-trips Template.String), each length-prefixed so
// distinct suites never concatenate alike. The key lives only in memory,
// so its format is free to change.
func suiteKey(templates []*template.Template) string {
	var b strings.Builder
	for _, t := range templates {
		s := t.String()
		b.WriteString(strconv.Itoa(len(s)))
		b.WriteByte(':')
		b.WriteString(s)
	}
	return b.String()
}

// get returns a copy of the records cached under k, or nil. The records'
// Hits slices are shared and must not be written.
func (c *CorpusCache) get(k corpusKey) []BatchRec {
	if c == nil {
		return nil
	}
	c.mu.Lock()
	defer c.mu.Unlock()
	el, ok := c.entries[k]
	if !ok {
		return nil
	}
	c.order.MoveToFront(el)
	return slices.Clone(el.Value.(*corpusEntry).recs)
}

// put stores a finished build's records under k, taking ownership of
// recs, and returns how many least-recently-used builds it evicted. A
// key already present keeps its records: two builds of one key produce
// identical records, so whichever finished first stays.
func (c *CorpusCache) put(k corpusKey, recs []BatchRec) (evicted int) {
	if c == nil {
		return 0
	}
	c.mu.Lock()
	defer c.mu.Unlock()
	if el, ok := c.entries[k]; ok {
		c.order.MoveToFront(el)
		return 0
	}
	c.entries[k] = c.order.PushFront(&corpusEntry{key: k, recs: recs})
	for c.order.Len() > c.cap {
		last := c.order.Back()
		c.order.Remove(last)
		delete(c.entries, last.Value.(*corpusEntry).key)
		evicted++
	}
	return evicted
}

// len reports the number of cached builds (for tests).
func (c *CorpusCache) len() int {
	c.mu.Lock()
	defer c.mu.Unlock()
	return c.order.Len()
}
