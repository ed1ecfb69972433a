package coverage

import "math/bits"

// Vector is the coverage vector of one simulated test-instance: bit i is
// set iff event i was hit during the simulation (paper Section III). It
// is a fixed-size bitset sized to a model.
type Vector struct {
	words []uint64
	n     int
}

// NewVector returns an all-zero vector for n events.
func NewVector(n int) Vector {
	return Vector{words: make([]uint64, (n+63)/64), n: n}
}

// NewVectorFor returns an all-zero vector sized to the model.
func NewVectorFor(m *Model) Vector {
	return NewVector(m.Size())
}

// Len returns the number of events the vector covers.
func (v Vector) Len() int { return v.n }

// Set marks event id as hit.
func (v Vector) Set(id int) {
	v.words[id>>6] |= 1 << (uint(id) & 63)
}

// Get reports whether event id was hit.
func (v Vector) Get(id int) bool {
	return v.words[id>>6]&(1<<(uint(id)&63)) != 0
}

// PopCount returns the number of hit events.
func (v Vector) PopCount() int {
	c := 0
	for _, w := range v.words {
		c += bits.OnesCount64(w)
	}
	return c
}

// Reset clears all bits.
func (v Vector) Reset() {
	for i := range v.words {
		v.words[i] = 0
	}
}

// Clone returns an independent copy of v.
func (v Vector) Clone() Vector {
	c := Vector{words: make([]uint64, len(v.words)), n: v.n}
	copy(c.words, v.words)
	return c
}

// Equal reports whether v and u have identical length and bits.
func (v Vector) Equal(u Vector) bool {
	if v.n != u.n {
		return false
	}
	for i := range v.words {
		if v.words[i] != u.words[i] {
			return false
		}
	}
	return true
}

// HitIDs returns the IDs of all hit events in ascending order.
func (v Vector) HitIDs() []int {
	ids := make([]int, 0, v.PopCount())
	for wi, w := range v.words {
		for w != 0 {
			b := bits.TrailingZeros64(w)
			ids = append(ids, wi*64+b)
			w &= w - 1
		}
	}
	return ids
}
