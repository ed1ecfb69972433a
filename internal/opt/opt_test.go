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
func noisy(f Objective, amplitude float64, seed uint64) Objective {
	r := rng.New(seed)
	return func(x []float64) float64 {
		return f(x) + (r.Float64()*2-1)*amplitude
	}
}

// runIF drives a fresh implicit-filtering engine over f to completion.
func runIF(f Objective, cfg EngineConfig, spec IFSpec) (Result, error) {
	return Drive(newIFEngine(cfg, spec), DriveOptions{Objective: f})
}

func TestImplicitFilteringConvergesNoiseless(t *testing.T) {
	x0 := []float64{10, 10, 10}
	res, err := runIF(sphere, EngineConfig{X0: x0, RNG: rng.New(1)},
		IFSpec{Directions: 15, Iterations: 120, MinStep: 0.01})
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
		IFSpec{Directions: 20, Iterations: 80})
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
			IFSpec{Directions: 6, Iterations: 20})
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
		IFSpec{Directions: 4, Iterations: 100, InitialStep: 32, MinStep: 1})
	if err != nil {
		t.Fatal(err)
	}
	// 32 -> 16 -> 8 -> 4 -> 2 -> 1 -> 0.5 < 1: six iterations.
	if len(res.History) != 6 {
		t.Fatalf("iterations = %d, want 6 (history %+v)", len(res.History), res.History)
	}
	for _, h := range res.History {
		if h.Moved {
			t.Fatal("flat objective must never move the center")
		}
	}
}

func TestImplicitFilteringMaxEvals(t *testing.T) {
	calls := 0
	f := func(x []float64) float64 { calls++; return 0 }
	_, err := runIF(f, EngineConfig{X0: []float64{1, 2}, MaxEvals: 37, RNG: rng.New(6)},
		IFSpec{Directions: 10, Iterations: 1000, MinStep: 1e-9})
	if err != nil {
		t.Fatal(err)
	}
	if calls > 37 {
		t.Fatalf("calls = %d, budget 37", calls)
	}
}

func TestImplicitFilteringHistoryMonotoneEvals(t *testing.T) {
	res, _ := runIF(noisy(sphere, 50, 1), EngineConfig{X0: []float64{20, 20}, RNG: rng.New(7)},
		IFSpec{Directions: 8, Iterations: 30})
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
	s := IFSpec{}.withDefaults(c.Lo, c.Hi)
	if s.Directions != 10 || c.Hi != 100 || s.InitialStep != 25 || s.Iterations != 50 {
		t.Fatalf("defaults = %+v %+v", c, s)
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
