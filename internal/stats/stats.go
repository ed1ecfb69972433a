// Package stats provides the small statistical toolbox the AS-CDG
// reproduction needs around empirical hit probabilities: binomial
// confidence intervals for e_N(t) estimates, rate comparison, and
// simple summary statistics for optimizer traces.
//
// Coverage hit rates are Bernoulli estimates from N simulations. The
// Wilson score interval behaves sensibly at the extremes that dominate
// CDG work (rates near 0 for uncovered events, near 1 for saturated
// ones), unlike the normal-approximation interval.
package stats

import (
	"fmt"
	"math"
)

// z95 is the standard normal quantile for a 95% two-sided interval.
const z95 = 1.959963984540054

// Interval is a confidence interval for a proportion.
type Interval struct {
	Lo, Hi float64
}

// Contains reports whether p lies inside the interval.
func (iv Interval) Contains(p float64) bool {
	return p >= iv.Lo && p <= iv.Hi
}

// String renders the interval as percentages.
func (iv Interval) String() string {
	return fmt.Sprintf("[%.3f%%, %.3f%%]", iv.Lo*100, iv.Hi*100)
}

// Wilson returns the 95% Wilson score interval for hits successes out
// of n trials. n == 0 yields the vacuous interval [0, 1].
func Wilson(hits, n uint64) Interval {
	if n == 0 {
		return Interval{0, 1}
	}
	return WilsonZ(hits, n, z95)
}

// WilsonZ is Wilson with an explicit z quantile.
func WilsonZ(hits, n uint64, z float64) Interval {
	if n == 0 {
		return Interval{0, 1}
	}
	nf := float64(n)
	p := float64(hits) / nf
	z2 := z * z
	denom := 1 + z2/nf
	center := (p + z2/(2*nf)) / denom
	margin := z / denom * math.Sqrt(p*(1-p)/nf+z2/(4*nf*nf))
	lo := center - margin
	hi := center + margin
	// At p == 0 and p == 1 the bound is exactly 0 or 1, but center and
	// margin round differently; pin them so the interval still holds p.
	if lo < 0 || hits == 0 {
		lo = 0
	}
	if hi > 1 || hits == n {
		hi = 1
	}
	return Interval{lo, hi}
}

// RatesDiffer reports whether two empirical rates are distinguishable at
// ~95% confidence: their Wilson intervals do not overlap. This is a
// conservative test, which is the right default when deciding whether a
// candidate template truly beats another rather than winning on noise.
func RatesDiffer(hitsA, nA, hitsB, nB uint64) bool {
	a := Wilson(hitsA, nA)
	b := Wilson(hitsB, nB)
	return a.Hi < b.Lo || b.Hi < a.Lo
}

// RuleOfThree returns the 95% upper bound on the hit probability of an
// event never hit in n simulations (the "rule of three": 3/n). It
// answers the question coverage closure keeps asking: "how rare could
// this still-uncovered event be, given the budget already spent?"
func RuleOfThree(n uint64) float64 {
	if n == 0 {
		return 1
	}
	return 3 / float64(n)
}

// Summary holds simple descriptive statistics of a sample.
type Summary struct {
	N         int
	Mean, Std float64
	Min, Max  float64
}

// Summarize computes descriptive statistics; an empty sample yields the
// zero Summary.
func Summarize(xs []float64) Summary {
	if len(xs) == 0 {
		return Summary{}
	}
	s := Summary{N: len(xs), Min: xs[0], Max: xs[0]}
	sum := 0.0
	for _, x := range xs {
		sum += x
		if x < s.Min {
			s.Min = x
		}
		if x > s.Max {
			s.Max = x
		}
	}
	s.Mean = sum / float64(len(xs))
	if len(xs) > 1 {
		ss := 0.0
		for _, x := range xs {
			d := x - s.Mean
			ss += d * d
		}
		s.Std = math.Sqrt(ss / float64(len(xs)-1))
	}
	return s
}
