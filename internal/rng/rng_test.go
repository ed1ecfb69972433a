package rng

import (
	"math"
	"testing"
	"testing/quick"
)

func TestDeterminism(t *testing.T) {
	a := New(42)
	b := New(42)
	for i := 0; i < 1000; i++ {
		if got, want := a.Uint64(), b.Uint64(); got != want {
			t.Fatalf("step %d: streams diverged: %d != %d", i, got, want)
		}
	}
}

func TestSeedsDiffer(t *testing.T) {
	a := New(1)
	b := New(2)
	same := 0
	for i := 0; i < 100; i++ {
		if a.Uint64() == b.Uint64() {
			same++
		}
	}
	if same > 0 {
		t.Fatalf("streams from different seeds collided %d/100 times", same)
	}
}

func TestSplitIndependence(t *testing.T) {
	parent := New(7)
	child := parent.Split()
	// The child's first outputs must differ from the parent's continuation.
	collisions := 0
	for i := 0; i < 64; i++ {
		if parent.Uint64() == child.Uint64() {
			collisions++
		}
	}
	if collisions > 0 {
		t.Fatalf("parent and child streams collided %d/64 times", collisions)
	}
}

func TestSplitStringDeterministicAndOrderIndependent(t *testing.T) {
	a := New(99).SplitString("alpha")
	b := New(99).SplitString("alpha")
	if a.Uint64() != b.Uint64() {
		t.Fatal("SplitString with equal labels must produce equal streams")
	}
	// Order independence: deriving "beta" first must not change "alpha".
	p := New(99)
	_ = p.SplitString("beta")
	c := p.SplitString("alpha")
	d := New(99).SplitString("alpha")
	if c.Uint64() != d.Uint64() {
		t.Fatal("SplitString must not depend on prior derivations")
	}
}

func TestSplitStringLabelsDiffer(t *testing.T) {
	r := New(5)
	a := r.SplitString("a")
	b := r.SplitString("b")
	if a.Uint64() == b.Uint64() {
		t.Fatal("different labels should give different streams")
	}
}

func TestSplitIndexDeterministic(t *testing.T) {
	if New(3).SplitIndex(9).Uint64() != New(3).SplitIndex(9).Uint64() {
		t.Fatal("SplitIndex must be deterministic")
	}
	if New(3).SplitIndex(9).Uint64() == New(3).SplitIndex(10).Uint64() {
		t.Fatal("adjacent indices must differ")
	}
}

func TestIntnBounds(t *testing.T) {
	r := New(11)
	for _, n := range []int{1, 2, 3, 7, 100, 1 << 20} {
		for i := 0; i < 200; i++ {
			v := r.Intn(n)
			if v < 0 || v >= n {
				t.Fatalf("Intn(%d) = %d out of range", n, v)
			}
		}
	}
}

func TestIntnPanicsOnNonPositive(t *testing.T) {
	defer func() {
		if recover() == nil {
			t.Fatal("Intn(0) should panic")
		}
	}()
	New(0).Intn(0)
}

func TestIntRange(t *testing.T) {
	r := New(13)
	seen := map[int]bool{}
	for i := 0; i < 1000; i++ {
		v := r.IntRange(5, 8)
		if v < 5 || v > 8 {
			t.Fatalf("IntRange(5,8) = %d", v)
		}
		seen[v] = true
	}
	for v := 5; v <= 8; v++ {
		if !seen[v] {
			t.Errorf("IntRange(5,8) never produced %d in 1000 draws", v)
		}
	}
	if got := r.IntRange(4, 4); got != 4 {
		t.Fatalf("IntRange(4,4) = %d, want 4", got)
	}
}

func TestIntRangePanics(t *testing.T) {
	defer func() {
		if recover() == nil {
			t.Fatal("IntRange(2,1) should panic")
		}
	}()
	New(0).IntRange(2, 1)
}

func TestFloat64Range(t *testing.T) {
	r := New(17)
	for i := 0; i < 10000; i++ {
		f := r.Float64()
		if f < 0 || f >= 1 {
			t.Fatalf("Float64() = %v out of [0,1)", f)
		}
	}
}

func TestFloat64Mean(t *testing.T) {
	r := New(19)
	sum := 0.0
	const n = 100000
	for i := 0; i < n; i++ {
		sum += r.Float64()
	}
	mean := sum / n
	if math.Abs(mean-0.5) > 0.01 {
		t.Fatalf("Float64 mean = %v, want ~0.5", mean)
	}
}

func TestNormFloat64Moments(t *testing.T) {
	r := New(23)
	const n = 100000
	var sum, sumSq float64
	for i := 0; i < n; i++ {
		v := r.NormFloat64()
		sum += v
		sumSq += v * v
	}
	mean := sum / n
	variance := sumSq/n - mean*mean
	if math.Abs(mean) > 0.02 {
		t.Errorf("normal mean = %v, want ~0", mean)
	}
	if math.Abs(variance-1) > 0.05 {
		t.Errorf("normal variance = %v, want ~1", variance)
	}
}

func TestBoolProbability(t *testing.T) {
	r := New(29)
	const n = 100000
	hits := 0
	for i := 0; i < n; i++ {
		if r.Bool(0.3) {
			hits++
		}
	}
	rate := float64(hits) / n
	if math.Abs(rate-0.3) > 0.01 {
		t.Fatalf("Bool(0.3) rate = %v", rate)
	}
	if New(1).Bool(0) {
		t.Error("Bool(0) must be false")
	}
	if !New(1).Bool(1.1) {
		t.Error("Bool(>1) must be true")
	}
}

// TestThresholdEqualsFloatCompare: the integer Bernoulli draw is the
// float compare it replaced, on every draw and at every edge of p.
func TestThresholdEqualsFloatCompare(t *testing.T) {
	const ulp = 1.0 / (1 << 53)
	for _, p := range []float64{-0.5, 0, ulp, 0.004, 0.08, 0.88, 1 - ulp, 1, 1.5, math.NaN(), math.Inf(1)} {
		a, b, c := New(97), New(97), New(97)
		th := Threshold(p)
		for i := 0; i < 1000000; i++ {
			want := a.Float64() < p
			if b.Below(th) != want || c.Bool(p) != want {
				t.Fatalf("p=%v draw %d: threshold form disagrees with Float64() < p (= %v)", p, i, want)
			}
		}
		if a.State() != b.State() || a.State() != c.State() {
			t.Fatalf("p=%v: a Bernoulli draw must consume exactly one output", p)
		}
	}
	// The two values of x a 10^6-draw stream will not produce: the
	// smallest and the largest.
	for _, p := range []float64{ulp, 1 - ulp} {
		th := Threshold(p)
		for _, x := range []uint64{0, 1, th - 1, th, 1<<53 - 2, 1<<53 - 1} {
			if want := float64(x)/(1<<53) < p; (x < th) != want {
				t.Errorf("p=%v x=%d: x < Threshold(p) is %v, float compare %v", p, x, x < th, want)
			}
		}
	}
}

func TestPermIsPermutation(t *testing.T) {
	f := func(seed uint64) bool {
		r := New(seed)
		n := 1 + r.Intn(50)
		p := r.Perm(n)
		if len(p) != n {
			return false
		}
		seen := make([]bool, n)
		for _, v := range p {
			if v < 0 || v >= n || seen[v] {
				return false
			}
			seen[v] = true
		}
		return true
	}
	if err := quick.Check(f, nil); err != nil {
		t.Fatal(err)
	}
}

func TestShuffleCoversOrders(t *testing.T) {
	r := New(31)
	counts := map[[3]int]int{}
	for i := 0; i < 6000; i++ {
		a := [3]int{0, 1, 2}
		r.Shuffle(3, func(i, j int) { a[i], a[j] = a[j], a[i] })
		counts[a]++
	}
	if len(counts) != 6 {
		t.Fatalf("shuffle produced %d of 6 possible orders", len(counts))
	}
	for order, c := range counts {
		if c < 700 || c > 1300 {
			t.Errorf("order %v appeared %d times, want ~1000", order, c)
		}
	}
}

func TestUint64Distribution(t *testing.T) {
	// Crude equidistribution check: each of the top 4 bits patterns of the
	// high nibble should appear roughly uniformly.
	r := New(47)
	counts := make([]int, 16)
	const n = 160000
	for i := 0; i < n; i++ {
		counts[r.Uint64()>>60]++
	}
	for i, c := range counts {
		if c < 9000 || c > 11000 {
			t.Errorf("high nibble %x frequency %d, want ~10000", i, c)
		}
	}
}

// TestSkipIsRepeatedDraws: Skip(n) leaves the stream where n calls of
// Uint64 do, including an n whose n*Stride wraps the state many times.
func TestSkipIsRepeatedDraws(t *testing.T) {
	for _, seed := range []uint64{0, 7, math.MaxUint64 - 3} {
		for _, n := range []int{0, 1, 2, 1000, 1 << 20} {
			a, b := New(seed), New(seed)
			a.Skip(n)
			for i := 0; i < n; i++ {
				b.Uint64()
			}
			if a.State() != b.State() || a.Uint64() != b.Uint64() {
				t.Errorf("seed %d: Skip(%d) left state %#x, %d draws %#x", seed, n, a.State(), n, b.State())
			}
		}
	}
}

// TestWordIsTheDrawIntnScales: Word(Stride) is the low half of Uint64 and
// the 32 bits Intn multiplies, with the same step of the stream; Word(0)
// leaves the stream where it was.
func TestWordIsTheDrawIntnScales(t *testing.T) {
	f := func(seed uint64, bound uint32) bool {
		n := int(bound) + 1 // up to 1<<32
		a, b, c := New(seed), New(seed), New(seed)
		for i := 0; i < 20; i++ {
			w := a.Word(Stride)
			if w != uint32(b.Uint64()) || int(uint64(w)*uint64(n)>>32) != c.Intn(n) {
				return false
			}
			if a.Word(0); a.State() != b.State() || a.State() != c.State() {
				return false
			}
		}
		return true
	}
	if err := quick.Check(f, nil); err != nil {
		t.Fatal(err)
	}
}
