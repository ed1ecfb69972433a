// Package opt implements the derivative-free optimization (DFO) methods
// of the AS-CDG reproduction.
//
// The mapping from test-template settings to coverage is unknown,
// probabilistic, and only observable through simulation, so the flow
// cannot use gradient or Hessian methods (paper Section IV-E). The
// primary algorithm is implicit filtering (Algorithm 1 in the paper,
// refs [5], [6]) with the paper's two noise modifications: N samples per
// point and per-iteration resampling of the center. A
// Bayesian-optimization engine and a learned ranker are the
// alternatives it is compared against.
//
// Every method is an Engine (engine.go), built by name with New and run
// by Drive — the one way to run an optimizer. All of them MAXIMIZE the
// objective over the box [Lo, Hi]^d, and a run ends when its engine's
// iterations are spent or its own stop criterion holds. Each engine
// embeds one frame (frame.go) that owns the Propose/Observe protocol,
// the eval count, the best point, the history and Result; the engine's
// own file holds only its search policy and checkpoint payload.
package opt

import (
	"context"
	"math"

	"repro/internal/rng"
)

// BatchObjective evaluates a (noisy) function to maximize at many
// independent points at once and returns one value per point, in order.
// Stencil-based optimizers probe n independent points per iteration; a
// batch objective lets the caller evaluate them concurrently (e.g. as
// parallel simulation jobs on sim.Env's scheduler) instead of one at a
// time. The i-th returned value must be what evaluating points[i] would
// have returned had the points been evaluated sequentially in order —
// callers backed by a deterministic simulation environment get this by
// submitting jobs in point order.
type BatchObjective func(points [][]float64) []float64

// ctxErr is the nil-tolerant cancellation probe (nil = never canceled).
func ctxErr(ctx context.Context) error {
	if ctx == nil {
		return nil
	}
	return ctx.Err()
}

// IterRecord captures one optimizer iteration for progress plots (the
// paper's Fig. 6 series).
type IterRecord struct {
	Iter  int     `json:"iter"`
	Best  float64 `json:"best"`  // best objective value observed this iteration
	Step  float64 `json:"step"`  // stencil size during the iteration
	Moved bool    `json:"moved"` // whether the center moved
	Evals int     `json:"evals"` // cumulative objective calls after the iteration
}

// Result is the outcome of an optimization run.
type Result struct {
	X       []float64
	Value   float64
	Evals   int
	History []IterRecord
}

// clampTo limits x to [lo, hi] in place.
func clampTo(x []float64, lo, hi float64) {
	for i, v := range x {
		if v < lo {
			x[i] = lo
		} else if v > hi {
			x[i] = hi
		}
	}
}

// randomDirection draws a uniform direction on the unit sphere.
func randomDirection(r *rng.RNG, dim int) []float64 {
	d := make([]float64, dim)
	for {
		for i := range d {
			d[i] = r.NormFloat64()
		}
		n := 0.0
		for _, v := range d {
			n += float64(v * v)
		}
		if n == 0 {
			continue
		}
		n = math.Sqrt(n)
		for i := range d {
			d[i] /= n
		}
		return d
	}
}
