package coverage

import (
	"fmt"
	"math/bits"
)

// Counts aggregates coverage vectors: per-event hit counts over a number
// of simulations. A hit count is the number of simulations in which the
// event was hit at least once, so HitRate is the empirical estimate
// e_N(t) of the paper's per-event hit probability (Section IV-D).
type Counts struct {
	hits []uint64
	sims uint64
}

// NewCounts returns zeroed counts for n events.
func NewCounts(n int) *Counts {
	return &Counts{hits: make([]uint64, n)}
}

// NewCountsFor returns zeroed counts sized to the model.
func NewCountsFor(m *Model) *Counts {
	return NewCounts(m.Size())
}

// Len returns the number of events tracked.
func (c *Counts) Len() int { return len(c.hits) }

// Sims returns the number of simulations aggregated.
func (c *Counts) Sims() uint64 { return c.sims }

// Add aggregates one simulation's coverage vector. It walks the
// vector's words directly (popcount-style bit extraction) rather than
// materializing the hit IDs, so the hottest aggregation loop in the system
// — one Add per simulation — allocates nothing.
func (c *Counts) Add(v Vector) {
	if v.n != len(c.hits) {
		panic(fmt.Sprintf("coverage: Counts.Add: vector has %d events, counts track %d", v.n, len(c.hits)))
	}
	c.sims++
	hits := c.hits
	for wi, w := range v.words {
		base := wi << 6
		for w != 0 {
			hits[base+bits.TrailingZeros64(w)]++
			w &= w - 1
		}
	}
}

// Merge adds another aggregate into c.
func (c *Counts) Merge(o *Counts) {
	if o == nil {
		return
	}
	if len(o.hits) != len(c.hits) {
		panic(fmt.Sprintf("coverage: Counts.Merge: size mismatch %d vs %d", len(o.hits), len(c.hits)))
	}
	c.sims += o.sims
	for i, h := range o.hits {
		c.hits[i] += h
	}
}

// Hits returns the hit count of event id.
func (c *Counts) Hits(id int) uint64 { return c.hits[id] }

// HitRate returns the empirical hit probability of event id: hits/sims.
// It returns 0 when no simulations were aggregated.
func (c *Counts) HitRate(id int) float64 {
	if c.sims == 0 {
		return 0
	}
	return float64(c.hits[id]) / float64(c.sims)
}

// Status returns the IBM status of event id under this aggregate.
func (c *Counts) Status(id int) Status {
	return Classify(c.hits[id], c.sims)
}

// Raw returns a copy of the per-event hit counts and the simulation
// count — the wire form of an aggregate. CountsFromRaw reverses it.
func (c *Counts) Raw() ([]uint64, uint64) {
	hits := make([]uint64, len(c.hits))
	copy(hits, c.hits)
	return hits, c.sims
}

// AppendRaw appends the per-event hit counts to dst (reusing its
// capacity) and returns the extended slice plus the simulation count —
// the allocation-free form of Raw for encoders that own a reusable
// scratch buffer.
func (c *Counts) AppendRaw(dst []uint64) ([]uint64, uint64) {
	return append(dst, c.hits...), c.sims
}

// AddRaw merges a wire-form aggregate (per-event hit counts + sim
// count) into c without an intermediate Counts allocation — the decode
// side of AppendRaw. The caller keeps ownership of hits.
func (c *Counts) AddRaw(hits []uint64, sims uint64) {
	if len(hits) != len(c.hits) {
		panic(fmt.Sprintf("coverage: Counts.AddRaw: size mismatch %d vs %d", len(hits), len(c.hits)))
	}
	c.sims += sims
	for i, h := range hits {
		c.hits[i] += h
	}
}

// Reset zeroes the aggregate in place, keeping its event capacity —
// so per-lane scratch aggregates can be reused across chunks.
func (c *Counts) Reset() {
	c.sims = 0
	clear(c.hits)
}

// CountsFromRaw reconstructs an aggregate from its wire form (a copy is
// taken, so the caller keeps ownership of hits).
func CountsFromRaw(hits []uint64, sims uint64) *Counts {
	c := &Counts{hits: make([]uint64, len(hits)), sims: sims}
	copy(c.hits, hits)
	return c
}

// Clone returns an independent copy.
func (c *Counts) Clone() *Counts {
	n := &Counts{hits: make([]uint64, len(c.hits)), sims: c.sims}
	copy(n.hits, c.hits)
	return n
}

// StatusCounts tallies how many of the given events fall into each
// status class; pass nil to tally all events. This is the summary shape
// of the paper's Fig. 5.
func (c *Counts) StatusCounts(events []int) map[Status]int {
	out := map[Status]int{StatusNever: 0, StatusLightly: 0, StatusWell: 0}
	if events == nil {
		for id := range c.hits {
			out[c.Status(id)]++
		}
		return out
	}
	for _, id := range events {
		out[c.Status(id)]++
	}
	return out
}
