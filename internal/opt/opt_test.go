package opt

import (
	"math"
	"testing"
	"testing/quick"

	"repro/internal/rng"
)

// sphere is a smooth unimodal objective peaking at (70, 70, ..., 70)
// with value 0; elsewhere negative.
func sphere(x []float64) float64 {
	s := 0.0
	for _, v := range x {
		d := v - 70
		s -= d * d
	}
	return s
}

// noisy wraps an objective with additive noise of the given amplitude.
func noisy(f func([]float64) float64, amplitude float64, seed uint64) func([]float64) float64 {
	r := rng.New(seed)
	return func(x []float64) float64 {
		return f(x) + (r.Float64()*2-1)*amplitude
	}
}

// runIF drives a fresh implicit-filtering engine over f to completion.
func runIF(f func([]float64) float64, cfg EngineConfig, spec ifSpec) (Result, error) {
	return Drive(newIFEngine(cfg, spec), DriveOptions{Batch: asBatch(f)})
}

func TestImplicitFilteringConvergesNoiseless(t *testing.T) {
	x0 := []float64{10, 10, 10}
	res, err := runIF(sphere, EngineConfig{X0: x0, RNG: rng.New(1)},
		ifSpec{Directions: 15, Iterations: 120})
	if err != nil {
		t.Fatal(err)
	}
	for i, v := range res.X {
		if math.Abs(v-70) > 5 {
			t.Fatalf("x[%d] = %v, want ~70 (value %v)", i, v, res.Value)
		}
	}
	if res.Value < -30 {
		t.Fatalf("final value = %v", res.Value)
	}
}

func TestImplicitFilteringImprovesUnderNoise(t *testing.T) {
	x0 := []float64{5, 5, 5, 5}
	start := sphere(x0)
	res, err := runIF(noisy(sphere, 200, 7), EngineConfig{X0: x0, RNG: rng.New(2)},
		ifSpec{Directions: 20, Iterations: 80})
	if err != nil {
		t.Fatal(err)
	}
	if got := sphere(res.X); got < start+4000 {
		t.Fatalf("true value at result = %v, start = %v: no progress under noise", got, start)
	}
}

func TestImplicitFilteringNeverWorseThanStartNoiseless(t *testing.T) {
	// Property: with a deterministic objective, the returned value is at
	// least the starting value (the algorithm only moves on improvement).
	f := func(seed uint64) bool {
		r := rng.New(seed)
		dim := 1 + r.Intn(6)
		x0 := make([]float64, dim)
		for i := range x0 {
			x0[i] = r.Float64() * 100
		}
		res, err := runIF(sphere, EngineConfig{X0: x0, RNG: rng.New(seed + 1)},
			ifSpec{Directions: 6, Iterations: 20})
		if err != nil {
			return false
		}
		return res.Value >= sphere(x0)-1e-9
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 60}); err != nil {
		t.Fatal(err)
	}
}

func TestImplicitFilteringStencilHalvesWhenStuck(t *testing.T) {
	flat := func(x []float64) float64 { return 0 }
	res, err := runIF(flat, EngineConfig{X0: []float64{50}, RNG: rng.New(4)},
		ifSpec{Directions: 4, Iterations: 100})
	if err != nil {
		t.Fatal(err)
	}
	// The box is [0, 100]: 25 -> 12.5 -> 6.25 -> 3.125 -> 1.5625 ->
	// 0.78125 < 100/64: five iterations.
	if len(res.History) != 5 {
		t.Fatalf("iterations = %d, want 5 (history %+v)", len(res.History), res.History)
	}
	if h := res.History[len(res.History)-1].Step; h != 100.0/128 {
		t.Fatalf("final step = %v, want %v", h, 100.0/128)
	}
	for _, h := range res.History {
		if h.Moved {
			t.Fatal("flat objective must never move the center")
		}
	}
}

func TestImplicitFilteringHistoryMonotoneEvals(t *testing.T) {
	res, _ := runIF(noisy(sphere, 50, 1), EngineConfig{X0: []float64{20, 20}, RNG: rng.New(7)},
		ifSpec{Directions: 8, Iterations: 30})
	prev := 0
	for _, h := range res.History {
		if h.Evals <= prev {
			t.Fatalf("evals not increasing: %+v", res.History)
		}
		prev = h.Evals
	}
}

func TestDefaultsApplied(t *testing.T) {
	c := EngineConfig{}.withDefaults()
	e := newIFEngine(EngineConfig{X0: []float64{1}}, ifSpec{})
	if e.spec.Directions != 10 || c.Hi != 100 || e.h != 25 || e.minStep != 100.0/64 || e.spec.Iterations != 50 {
		t.Fatalf("defaults = %+v %+v, step %v, min step %v", c, e.spec, e.h, e.minStep)
	}
	if c.RNG == nil {
		t.Fatal("default RNG missing")
	}
}

func TestRandomDirectionUnitNorm(t *testing.T) {
	r := rng.New(11)
	for i := 0; i < 100; i++ {
		d := randomDirection(r, 5)
		n := 0.0
		for _, v := range d {
			n += v * v
		}
		if math.Abs(math.Sqrt(n)-1) > 1e-9 {
			t.Fatalf("direction norm = %v", math.Sqrt(n))
		}
	}
}

// TestBayesTrainingSetCap: past bayesMaxObservations the GP trains on
// the global best plus the most recent observations.
func TestBayesTrainingSetCap(t *testing.T) {
	for _, best := range []int{3, 69} {
		e := newBayesEngine(EngineConfig{X0: []float64{1}}, bayesSpec{})
		for i := 0; i < 70; i++ {
			e.xs = append(e.xs, []float64{float64(i)})
			e.ys = append(e.ys, -float64(i))
		}
		e.ys[best] = 100
		xs, ys := e.trainingSet()
		var want []int
		if best < 70-(bayesMaxObservations-1) {
			want = append(want, best)
		}
		for i := 70 - (bayesMaxObservations - 1); i < 70; i++ {
			want = append(want, i)
		}
		if len(xs) != len(want) || len(ys) != len(want) {
			t.Fatalf("best at %d: %d inputs, %d values, want %d", best, len(xs), len(ys), len(want))
		}
		for k, i := range want {
			if xs[k][0] != float64(i) || ys[k] != e.ys[i] {
				t.Fatalf("best at %d: training point %d = (%v, %v), want observation %d", best, k, xs[k], ys[k], i)
			}
		}
	}
}
