package coverage

import (
	"math/bits"
	"testing"
	"testing/quick"

	"repro/internal/rng"
)

// addNaive is the reference implementation Counts.Add is checked
// against: the old hitIDs-materializing loop.
func addNaive(c *Counts, v Vector) {
	c.sims++
	for _, id := range hitIDs(v) {
		c.hits[id]++
	}
}

// popCount returns the number of hit events.
func popCount(v Vector) int {
	c := 0
	for _, w := range v.words {
		c += bits.OnesCount64(w)
	}
	return c
}

// hitIDs returns the IDs of all hit events in ascending order.
func hitIDs(v Vector) []int {
	ids := make([]int, 0, popCount(v))
	for wi, w := range v.words {
		for w != 0 {
			b := bits.TrailingZeros64(w)
			ids = append(ids, wi*64+b)
			w &= w - 1
		}
	}
	return ids
}

// TestCountsAddMatchesNaive property-checks the word-level Add against
// the materializing reference on random vectors of awkward sizes
// (including multiples of 64 and off-by-ones around word boundaries).
func TestCountsAddMatchesNaive(t *testing.T) {
	prop := func(seed uint64, sizeSel uint8, density uint8) bool {
		sizes := []int{1, 5, 63, 64, 65, 127, 128, 200, 1024}
		n := sizes[int(sizeSel)%len(sizes)]
		r := rng.New(seed)
		v := NewVector(n)
		for i := 0; i < n; i++ {
			if r.Uint64()%256 < uint64(density) {
				v.Set(i)
			}
		}
		fast, slow := NewCounts(n), NewCounts(n)
		fast.Add(v)
		addNaive(slow, v)
		if fast.Sims() != slow.Sims() {
			return false
		}
		for i := 0; i < n; i++ {
			if fast.Hits(i) != slow.Hits(i) {
				return false
			}
		}
		return true
	}
	if err := quick.Check(prop, &quick.Config{MaxCount: 300}); err != nil {
		t.Fatal(err)
	}
}

// TestCountsAddAllocs is the satellite's allocs-per-op assertion: the
// hottest aggregation loop in the system (one Add per simulation) must
// not allocate.
func TestCountsAddAllocs(t *testing.T) {
	c := NewCounts(1024)
	v := NewVector(1024)
	for i := 0; i < 1024; i += 3 {
		v.Set(i)
	}
	if allocs := testing.AllocsPerRun(100, func() { c.Add(v) }); allocs != 0 {
		t.Fatalf("Counts.Add allocates %.1f objects/op, want 0", allocs)
	}
}

func TestCountsAddRawAppendRawRoundTrip(t *testing.T) {
	c := NewCounts(10)
	v := NewVector(10)
	for _, id := range []int{0, 3, 7, 9} {
		v.Set(id)
	}
	c.Add(v)
	c.Add(v)

	var scratch []uint64
	hits, sims := c.AppendRaw(scratch[:0])
	if sims != 2 || len(hits) != 10 {
		t.Fatalf("AppendRaw = %d hits / %d sims, want 10 / 2", len(hits), sims)
	}

	d := NewCounts(10)
	d.AddRaw(hits, sims)
	d.AddRaw(hits, sims) // AddRaw merges, not overwrites
	if d.Sims() != 4 {
		t.Fatalf("sims after two AddRaw = %d, want 4", d.Sims())
	}
	for i := 0; i < 10; i++ {
		if d.Hits(i) != 2*c.Hits(i) {
			t.Fatalf("event %d: hits = %d, want %d", i, d.Hits(i), 2*c.Hits(i))
		}
	}

	// AppendRaw reuses the destination's capacity: no allocation once
	// the scratch has grown.
	scratch = make([]uint64, 0, 10)
	if allocs := testing.AllocsPerRun(100, func() {
		scratch, _ = c.AppendRaw(scratch[:0])
	}); allocs != 0 {
		t.Fatalf("AppendRaw into sized scratch allocates %.1f objects/op, want 0", allocs)
	}
}

func TestCountsAddRawSizeMismatchPanics(t *testing.T) {
	defer func() {
		if recover() == nil {
			t.Fatal("AddRaw with mismatched size did not panic")
		}
	}()
	NewCounts(4).AddRaw(make([]uint64, 5), 1)
}

func TestCountsReset(t *testing.T) {
	c := NewCounts(8)
	v := NewVector(8)
	v.Set(2)
	v.Set(5)
	c.Add(v)
	c.Reset()
	if c.Sims() != 0 {
		t.Fatalf("sims after Reset = %d, want 0", c.Sims())
	}
	for i := 0; i < 8; i++ {
		if c.Hits(i) != 0 {
			t.Fatalf("event %d hits = %d after Reset, want 0", i, c.Hits(i))
		}
	}
	if c.Len() != 8 {
		t.Fatalf("Len after Reset = %d, want 8", c.Len())
	}
	// Reset keeps the backing array: repeated reset/add cycles allocate
	// nothing.
	if allocs := testing.AllocsPerRun(100, func() {
		c.Reset()
		c.Add(v)
	}); allocs != 0 {
		t.Fatalf("Reset+Add cycle allocates %.1f objects/op, want 0", allocs)
	}
}

// BenchmarkCountsAdd is the per-simulation aggregation hot loop: one
// coverage vector merged into a running aggregate. allocs/op is the
// number the satellite task pins at zero.
func BenchmarkCountsAdd(b *testing.B) {
	for _, density := range []struct {
		name string
		step int
	}{{"sparse", 37}, {"dense", 3}} {
		b.Run(density.name, func(b *testing.B) {
			c := NewCounts(1024)
			v := NewVector(1024)
			for i := 0; i < 1024; i += density.step {
				v.Set(i)
			}
			b.ReportAllocs()
			b.ResetTimer()
			for i := 0; i < b.N; i++ {
				c.Add(v)
			}
		})
	}
}

// BenchmarkCountsMergePath is the chunk-completion path: a lane's
// scratch aggregate merged into the job total, then reset for reuse.
func BenchmarkCountsMergePath(b *testing.B) {
	total := NewCounts(1024)
	scratch := NewCounts(1024)
	v := NewVector(1024)
	for i := 0; i < 1024; i += 5 {
		v.Set(i)
	}
	for i := 0; i < 64; i++ {
		scratch.Add(v)
	}
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		total.Merge(scratch)
	}
}
