package opt

import (
	"encoding/json"
	"fmt"
	"reflect"
	"sync"
	"testing"

	"repro/internal/rng"
)

// asBatch lifts a point function into a batch objective that evaluates
// the points sequentially in order.
func asBatch(f func([]float64) float64) BatchObjective {
	return func(points [][]float64) []float64 {
		out := make([]float64, len(points))
		for i, p := range points {
			out[i] = f(p)
		}
		return out
	}
}

// concurrently lifts a point function into a batch objective that
// evaluates every point on its own goroutine and returns the values in
// point order — what the flow's scheduler does with a batch.
func concurrently(f func([]float64) float64) BatchObjective {
	return func(points [][]float64) []float64 {
		out := make([]float64, len(points))
		var wg sync.WaitGroup
		for i, p := range points {
			wg.Add(1)
			go func() {
				defer wg.Done()
				out[i] = f(p)
			}()
		}
		wg.Wait()
		return out
	}
}

// sameResult fails unless the two runs are identical down to the
// iteration histories — the contract that lets the flow evaluate a batch
// concurrently without changing results.
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
			return newIFEngine(EngineConfig{X0: []float64{10, 85, 40}, RNG: rng.New(seed)},
				ifSpec{Directions: 8, Iterations: 40})
		}
		seq, err := Drive(engine(), DriveOptions{Batch: asBatch(sphere)})
		if err != nil {
			t.Fatal(err)
		}
		batch, err := Drive(engine(), DriveOptions{Batch: concurrently(sphere)})
		if err != nil {
			t.Fatal(err)
		}
		sameResult(t, seq, batch)
	}
}

// TestBatchNeverCalledWithZeroPoints: Drive ends the run on an empty
// proposal instead of handing the objective an empty batch, whether the
// engine stops on its iterations or, on a flat objective, on implicit
// filtering's minimum step.
func TestBatchNeverCalledWithZeroPoints(t *testing.T) {
	flat := func([]float64) float64 { return 0 }
	for _, f := range []func([]float64) float64{sphere, flat} {
		batch := func(points [][]float64) []float64 {
			if len(points) == 0 {
				t.Fatal("batch objective called with zero points")
			}
			return asBatch(f)(points)
		}
		for _, name := range EngineNames() {
			for _, iters := range []int{1, 3, 20} {
				e, err := New(name, EngineConfig{X0: []float64{50, 50}, RNG: rng.New(4)},
					json.RawMessage(fmt.Sprintf(`{"iterations": %d}`, iters)))
				if err != nil {
					t.Fatal(err)
				}
				if _, err := Drive(e, DriveOptions{Batch: batch}); err != nil {
					t.Fatal(err)
				}
			}
		}
	}
}

func TestNilObjectiveRequiresBatch(t *testing.T) {
	if _, err := Drive(newIFEngine(EngineConfig{X0: []float64{1}}, ifSpec{}), DriveOptions{}); err == nil {
		t.Error("Drive without a batch objective should fail")
	}
}
