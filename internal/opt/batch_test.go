package opt

import (
	"reflect"
	"testing"

	"repro/internal/rng"
)

// asBatch lifts a sequential objective into a batch objective that
// honors the ordering contract: the i-th value is f(points[i]).
func asBatch(f Objective) BatchObjective {
	return func(points [][]float64) []float64 {
		out := make([]float64, len(points))
		for i, p := range points {
			out[i] = f(p)
		}
		return out
	}
}

// sameResult fails unless the two runs are identical down to the
// iteration histories — the contract that lets the flow switch between
// the sequential and batch paths without changing results.
func sameResult(t *testing.T, a, b Result) {
	t.Helper()
	if !reflect.DeepEqual(a.X, b.X) {
		t.Fatalf("X: %v != %v", a.X, b.X)
	}
	if a.Value != b.Value || a.Evals != b.Evals {
		t.Fatalf("value/evals: %v/%d != %v/%d", a.Value, a.Evals, b.Value, b.Evals)
	}
	if !reflect.DeepEqual(a.History, b.History) {
		t.Fatalf("histories differ:\n%+v\n%+v", a.History, b.History)
	}
}

func TestImplicitFilteringBatchMatchesSequential(t *testing.T) {
	for _, seed := range []uint64{1, 2, 3, 44} {
		engine := func() Engine {
			return newIFEngine(EngineConfig{X0: []float64{10, 85, 40}, MaxEvals: 200, RNG: rng.New(seed)},
				IFSpec{Directions: 8, Iterations: 40, MinStep: 0.01})
		}
		seq, err := Drive(engine(), DriveOptions{Objective: sphere})
		if err != nil {
			t.Fatal(err)
		}
		batch, err := Drive(engine(), DriveOptions{Batch: asBatch(sphere)})
		if err != nil {
			t.Fatal(err)
		}
		sameResult(t, seq, batch)
	}
}

func TestImplicitFilteringMaxEvalsExact(t *testing.T) {
	calls := 0
	f := func(x []float64) float64 { calls++; return 0 }
	if _, err := runIF(f, EngineConfig{X0: make([]float64, 6), MaxEvals: 30, RNG: rng.New(2)},
		IFSpec{Directions: 50, Iterations: 1000, MinStep: 1e-12}); err != nil {
		t.Fatal(err)
	}
	if calls > 30 {
		t.Fatalf("calls = %d, budget 30", calls)
	}
}

func TestBatchNeverCalledWithZeroPoints(t *testing.T) {
	// When the eval budget runs dry mid-iteration the probe list may be
	// empty; the batch objective must not be invoked for it.
	batch := func(points [][]float64) []float64 {
		if len(points) == 0 {
			t.Fatal("batch objective called with zero points")
		}
		out := make([]float64, len(points))
		for i, p := range points {
			out[i] = sphere(p)
		}
		return out
	}
	for _, budget := range []int{1, 2, 3} {
		eng := newIFEngine(EngineConfig{X0: []float64{50, 50}, MaxEvals: budget, RNG: rng.New(4)},
			IFSpec{Directions: 10, Iterations: 100, MinStep: 1e-12})
		if _, err := Drive(eng, DriveOptions{Batch: batch}); err != nil {
			t.Fatal(err)
		}
	}
}

func TestNilObjectiveRequiresBatch(t *testing.T) {
	if _, err := runIF(nil, EngineConfig{X0: []float64{1}}, IFSpec{}); err == nil {
		t.Error("nil objective without batch should fail")
	}
}
