// Package stats provides binomial confidence intervals for the empirical
// hit probabilities e_N(t) the AS-CDG reproduction reports.
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
	// The explicit conversion rounds the product, so no architecture
	// fuses it into center ± margin (Go spec, floating-point operators).
	margin := float64(z / denom * math.Sqrt(p*(1-p)/nf+z2/(4*nf*nf)))
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
