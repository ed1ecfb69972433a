// Package rng provides a small, deterministic, splittable pseudo-random
// number generator used throughout the AS-CDG reproduction.
//
// Reproducibility is a hard requirement for the simulation substrate: a
// test-instance is identified by (template, seed), and re-simulating the
// same instance must produce the same coverage vector. The standard
// library's global math/rand state is unsuitable because independent
// subsystems (stimuli generation, direction sampling in the optimizer,
// noise injection in the DUV models) would perturb each other's streams.
//
// The generator is a SplitMix64 core: tiny state, passes BigCrush-level
// statistical testing for the quantities consumed here, and supports
// cheap O(1) stream splitting so that every simulation, template and
// optimizer iteration gets an independent, reproducible stream.
package rng

import "math"

// Stride is the 64-bit golden-ratio increment of SplitMix64: the step
// the state takes for every draw.
const Stride = 0x9e3779b97f4a7c15

// RNG is a deterministic pseudo-random number generator. The zero value
// is a valid generator seeded with 0; prefer New for clarity.
type RNG struct {
	state uint64
}

// New returns a generator seeded with seed. Two generators created with
// the same seed produce identical streams.
func New(seed uint64) *RNG {
	return &RNG{state: seed}
}

// State returns the generator's current stream state. New(state)
// reconstructs a generator that continues the stream identically, which
// is how a batch seed travels across a process boundary (the farm wire
// protocol ships chunk seeds as raw state words). It does not advance
// the stream.
func (r *RNG) State() uint64 { return r.state }

// Uint64 returns the next value in the stream (SplitMix64 output function).
func (r *RNG) Uint64() uint64 {
	r.state += Stride
	return mix(r.state)
}

// mix is the SplitMix64 output function.
func mix(z uint64) uint64 {
	z = (z ^ (z >> 30)) * 0xbf58476d1ce4e5b9
	z = (z ^ (z >> 27)) * 0x94d049bb133111eb
	return z ^ (z >> 31)
}

// Word advances the stream by step and returns the 32 bits Intn scales:
// Word(Stride) is uint32(Uint64()), and Intn(n) is Word(Stride)*n>>32.
// Word(0) consumes nothing. It exists for callers that compile "draw or
// do not draw" into data (generator's deciders carry their step) so that
// the decision stays free of a branch and small enough to inline.
func (r *RNG) Word(step uint64) uint32 {
	r.state += step
	return uint32(mix(r.state))
}

// Skip advances the stream by n draws without computing them: the state
// is a counter, so n draws move it by n*Stride (mod 2^64). A model calls
// it for a stretch of cycles whose outcome does not depend on the draws
// made in them, where it must still leave the stream where the draws
// would have.
func (r *RNG) Skip(n int) {
	r.state += uint64(n) * Stride
}

// Split derives a new generator whose stream is statistically independent
// of the parent's continuation. The parent stream advances by one step.
func (r *RNG) Split() *RNG {
	// xor with a distinct constant so Split(), then Uint64() on the parent,
	// never yields the child's seed.
	return &RNG{state: r.Uint64() ^ 0x2545f4914f6cdd1d}
}

// SplitString derives a new generator keyed by label. Equal labels on
// equal parents yield equal children; the parent stream is not advanced,
// so the derivation is order-independent.
func (r *RNG) SplitString(label string) *RNG {
	// FNV-1a over the label, folded into the parent state.
	h := uint64(14695981039346656037)
	for i := 0; i < len(label); i++ {
		h ^= uint64(label[i])
		h *= 1099511628211
	}
	child := &RNG{state: r.state ^ h}
	// Burn one output so children of labels differing only in one bit
	// decorrelate immediately.
	child.Uint64()
	return child
}

// SplitIndex derives a new generator keyed by an integer index. Like
// SplitString it does not advance the parent stream.
func (r *RNG) SplitIndex(i uint64) *RNG {
	child := &RNG{state: r.state ^ (i+1)*0xd1342543de82ef95}
	child.Uint64()
	return child
}

// Int63 returns a non-negative random int64.
func (r *RNG) Int63() int64 {
	return int64(r.Uint64() >> 1)
}

// Intn returns a uniform value in [0, n). It panics if n <= 0.
//
// Domain: n <= 1<<32. The draw scales 32 bits of the stream, so a larger
// n is not refused but leaves values of [0, n) that are never returned
// (n = 1<<41 reaches only the multiples of 512). Callers that take n
// from outside the program bound it themselves: generator.Compile makes
// a wider total weight or range an error of the plan.
func (r *RNG) Intn(n int) int {
	if n <= 0 {
		panic("rng: Intn called with n <= 0")
	}
	// Lemire-style rejection-free-enough bound: for the modest n used in
	// this repository (weights, subranges, event counts) modulo bias is
	// below 2^-40 and irrelevant; use multiply-shift for speed.
	return int((uint64(uint32(r.Uint64())) * uint64(n)) >> 32)
}

// IntRange returns a uniform value in [lo, hi] inclusive. It panics if
// hi < lo.
func (r *RNG) IntRange(lo, hi int) int {
	if hi < lo {
		panic("rng: IntRange called with hi < lo")
	}
	return lo + r.Intn(hi-lo+1)
}

// Float64 returns a uniform value in [0, 1).
func (r *RNG) Float64() float64 {
	return float64(r.Uint64()>>11) / (1 << 53)
}

// NormFloat64 returns a standard normal variate (Box-Muller; one value
// per call, the second is discarded to keep the stream position simple).
func (r *RNG) NormFloat64() float64 {
	for {
		u := r.Float64()
		if u == 0 {
			continue
		}
		v := r.Float64()
		return math.Sqrt(-2*math.Log(u)) * math.Cos(2*math.Pi*v)
	}
}

// Threshold returns the integer form of the probability p: for the 53
// bits x a draw keeps, float64(x)/2^53 < p exactly when x < Threshold(p)
// (x, x/2^53 and p*2^53 are all exact in float64, and an integer is
// below a real exactly when it is below its ceiling). Precompute it for
// a constant probability and decide with Below: the draw then inlines
// into the caller with no float arithmetic.
func Threshold(p float64) uint64 {
	switch {
	case p >= 1:
		return 1 << 53
	case p > 0:
		return uint64(math.Ceil(p * (1 << 53)))
	default: // p <= 0, NaN
		return 0
	}
}

// Below consumes one draw and reports whether it falls under the
// threshold: Below(Threshold(p)) is Bool(p), bit for bit.
func (r *RNG) Below(threshold uint64) bool {
	return r.Uint64()>>11 < threshold
}

// Bool returns true with probability p.
func (r *RNG) Bool(p float64) bool {
	return r.Below(Threshold(p))
}

// Shuffle randomizes the order of n elements using the provided swap
// function (Fisher-Yates).
func (r *RNG) Shuffle(n int, swap func(i, j int)) {
	for i := n - 1; i > 0; i-- {
		j := r.Intn(i + 1)
		swap(i, j)
	}
}

// Perm returns a random permutation of [0, n).
func (r *RNG) Perm(n int) []int {
	p := make([]int, n)
	for i := range p {
		p[i] = i
	}
	r.Shuffle(n, func(i, j int) { p[i], p[j] = p[j], p[i] })
	return p
}
