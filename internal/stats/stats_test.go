package stats

import (
	"math"
	"strings"
	"testing"
	"testing/quick"

	"repro/internal/rng"
)

func TestWilsonKnownValues(t *testing.T) {
	// 50/100 at 95%: approximately [0.404, 0.596].
	iv := Wilson(50, 100)
	if math.Abs(iv.Lo-0.404) > 0.005 || math.Abs(iv.Hi-0.596) > 0.005 {
		t.Fatalf("Wilson(50,100) = %v", iv)
	}
	// 0/100: lower bound exactly 0, upper around 0.037.
	iv = Wilson(0, 100)
	if iv.Lo > 1e-12 {
		t.Fatalf("Wilson(0,100).Lo = %v", iv.Lo)
	}
	if iv.Hi < 0.025 || iv.Hi > 0.05 {
		t.Fatalf("Wilson(0,100).Hi = %v", iv.Hi)
	}
	// 100/100: upper bound exactly 1.
	iv = Wilson(100, 100)
	if iv.Hi != 1 {
		t.Fatalf("Wilson(100,100).Hi = %v", iv.Hi)
	}
}

func TestWilsonZeroTrials(t *testing.T) {
	iv := Wilson(0, 0)
	if iv.Lo != 0 || iv.Hi != 1 {
		t.Fatalf("vacuous interval = %v", iv)
	}
}

func TestWilsonPropertyBounds(t *testing.T) {
	f := func(seed uint64) bool {
		r := rng.New(seed)
		n := uint64(1 + r.Intn(100000))
		hits := uint64(r.Intn(int(n) + 1))
		iv := Wilson(hits, n)
		p := float64(hits) / float64(n)
		// Interval is within [0,1], ordered, and contains the point
		// estimate.
		return iv.Lo >= 0 && iv.Hi <= 1 && iv.Lo <= iv.Hi && iv.Contains(p)
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 500}); err != nil {
		t.Fatal(err)
	}
}

func TestWilsonExactEndpoints(t *testing.T) {
	// 0/n and n/n must reach 0 and 1 exactly: the bounds of the formula
	// round to just inside them for many n.
	for n := uint64(1); n <= 20000; n++ {
		if lo := Wilson(0, n).Lo; lo != 0 {
			t.Fatalf("Wilson(0,%d).Lo = %v, want 0", n, lo)
		}
		if hi := Wilson(n, n).Hi; hi != 1 {
			t.Fatalf("Wilson(%d,%d).Hi = %v, want 1", n, n, hi)
		}
	}
}

func TestWilsonShrinksWithN(t *testing.T) {
	// Property: for a fixed rate, more trials tighten the interval.
	prev := 1.0
	for _, n := range []uint64{10, 100, 1000, 10000} {
		iv := Wilson(n/2, n)
		width := iv.Hi - iv.Lo
		if width >= prev {
			t.Fatalf("interval did not shrink at n=%d: %v", n, iv)
		}
		prev = width
	}
}

func TestWilsonCoverageSimulation(t *testing.T) {
	// Empirical check: the 95% interval covers the true rate ~95% of the
	// time (allow 92-99% over 2000 experiments).
	r := rng.New(7)
	trueP := 0.13
	const experiments = 2000
	const n = 150
	covered := 0
	for e := 0; e < experiments; e++ {
		hits := uint64(0)
		for i := 0; i < n; i++ {
			if r.Bool(trueP) {
				hits++
			}
		}
		if Wilson(hits, n).Contains(trueP) {
			covered++
		}
	}
	rate := float64(covered) / experiments
	if rate < 0.92 || rate > 0.995 {
		t.Fatalf("empirical coverage = %.3f, want ~0.95", rate)
	}
}

func TestRatesDiffer(t *testing.T) {
	if !RatesDiffer(10, 1000, 200, 1000) {
		t.Error("1% vs 20% at n=1000 should differ")
	}
	if RatesDiffer(100, 1000, 110, 1000) {
		t.Error("10% vs 11% at n=1000 should not clearly differ")
	}
	if RatesDiffer(0, 10, 1, 10) {
		t.Error("tiny samples should not be distinguishable")
	}
}

func TestRuleOfThree(t *testing.T) {
	if got := RuleOfThree(1000); math.Abs(got-0.003) > 1e-12 {
		t.Fatalf("RuleOfThree(1000) = %v", got)
	}
	if RuleOfThree(0) != 1 {
		t.Fatal("RuleOfThree(0) should be vacuous")
	}
}

func TestIntervalString(t *testing.T) {
	s := Interval{0.01, 0.05}.String()
	if !strings.Contains(s, "1.000%") || !strings.Contains(s, "5.000%") {
		t.Fatalf("String = %q", s)
	}
}

func TestSummarize(t *testing.T) {
	s := Summarize([]float64{1, 2, 3, 4})
	if s.N != 4 || s.Mean != 2.5 || s.Min != 1 || s.Max != 4 {
		t.Fatalf("Summary = %+v", s)
	}
	if math.Abs(s.Std-1.2909944487358056) > 1e-12 {
		t.Fatalf("Std = %v", s.Std)
	}
	if Summarize(nil).N != 0 {
		t.Fatal("empty summary")
	}
	one := Summarize([]float64{7})
	if one.Std != 0 || one.Mean != 7 {
		t.Fatalf("single-sample summary = %+v", one)
	}
}
