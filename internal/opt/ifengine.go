package opt

import (
	"encoding/json"

	"repro/internal/obs"
	"repro/internal/rng"
)

// IFSpec holds implicit filtering's solver-specific knobs.
type IFSpec struct {
	// Directions is the number of random probe directions per iteration
	// — the paper's n (default 10).
	Directions int `json:"directions,omitempty"`
	// Iterations bounds the iteration count (default 50).
	Iterations int `json:"iterations,omitempty"`
	// InitialStep is the initial stencil size h (default: a quarter of
	// the box width).
	InitialStep float64 `json:"initial_step,omitempty"`
	// MinStep stops the run when the stencil shrinks below it (default:
	// 1/64 of the box width).
	MinStep float64 `json:"min_step,omitempty"`
	// NoResampleCenter disables the paper's per-iteration center
	// re-evaluation (set only by TestClaims' resampling row).
	NoResampleCenter bool `json:"no_resample_center,omitempty"`
}

func (s IFSpec) withDefaults(lo, hi float64) IFSpec {
	width := hi - lo
	if s.Directions <= 0 {
		s.Directions = 10
	}
	if s.InitialStep <= 0 {
		s.InitialStep = width / 4
	}
	if s.MinStep <= 0 {
		s.MinStep = width / 64
	}
	if s.Iterations <= 0 {
		s.Iterations = 50
	}
	return s
}

func (s *IFSpec) build(cfg EngineConfig) Engine { return newIFEngine(cfg, *s) }

// ifEngine is the paper's Algorithm 1 as a policy. Its first batch is
// the starting point alone; each iteration then proposes one batch
// [center?, probe1..probeN] — the center resample first, then the
// stencil probes. The probe directions come from the engine's own RNG
// and the probes are computed from the previous iteration's center, so
// the batch order is fixed: the default flow's golden reports depend on
// it.
type ifEngine struct {
	frame
	spec    IFSpec
	center  []float64 // nil until the starting point is observed
	centerV float64   // the center's latest value
	h       float64
	sp      *obs.Span
}

func newIFEngine(cfg EngineConfig, spec IFSpec) *ifEngine {
	e := &ifEngine{}
	e.frame = newFrame(DefaultEngine, cfg, e)
	e.spec = spec.withDefaults(e.lo, e.hi)
	e.h = e.spec.InitialStep
	return e
}

func (e *ifEngine) next(int) [][]float64 {
	if e.center == nil {
		return [][]float64{append([]float64(nil), e.x0...)}
	}
	if e.iter >= e.spec.Iterations {
		return nil
	}
	e.sp = e.oo.rec.Span("opt", "iteration")
	pts := make([][]float64, 0, e.spec.Directions+1)
	if !e.spec.NoResampleCenter {
		pts = append(pts, append([]float64(nil), e.center...))
	}
	// The center resample is charged before the probe count is clamped
	// to the remaining budget.
	for d := min(e.spec.Directions, e.remaining()-len(pts)); d > 0; d-- {
		dir := randomDirection(e.rng, e.dim)
		cand := make([]float64, e.dim)
		for i := range cand {
			cand[i] = e.center[i] + dir[i]*e.h
		}
		clampTo(cand, e.lo, e.hi)
		pts = append(pts, cand)
	}
	return pts
}

func (e *ifEngine) learn(pts [][]float64, values []float64) {
	if e.center == nil {
		e.center, e.centerV = pts[0], values[0]
		return
	}
	if !e.spec.NoResampleCenter {
		e.centerV = values[0]
		e.oo.resamples.Inc()
		pts, values = pts[1:], values[1:]
	}
	iterBest, moved := e.centerV, false
	for d, val := range values {
		if val > iterBest {
			iterBest, e.center, moved = val, pts[d], true
		}
	}
	if moved {
		e.centerV = iterBest
	} else {
		e.h /= 2
		e.oo.halvings.Inc()
	}
	e.endIteration(IterRecord{Best: iterBest, Step: e.h, Moved: moved})
	if e.sp != nil {
		e.sp.SetArg("iter", e.iter)
		e.sp.SetArg("best", iterBest)
		e.sp.SetArg("moved", moved)
		e.sp.End()
		e.sp = nil
	}
	e.done = e.h < e.spec.MinStep
}

// state is the IterState of the completed iteration. The initial center
// evaluation is not a boundary (the frame checkpoints only after
// iteration 1), so a kill before iteration 1 re-pays only that eval.
func (e *ifEngine) state() any {
	return IterState{
		Iter:        e.iter,
		Center:      e.center,
		Best:        e.centerV,
		Step:        e.h,
		OverallBest: e.best,
		OverallX:    e.bestX,
		Evals:       e.evals,
		RNGState:    e.rng.State(),
		History:     e.history,
	}
}

// Restore re-enters the run: trajectory state from the checkpoint, the
// RNG reseeded from its raw state, and the min-step stop the
// uninterrupted run checked after that iteration re-applied, so a
// finished run stays finished.
func (e *ifEngine) Restore(state json.RawMessage) error {
	var st IterState
	if err := json.Unmarshal(state, &st); err != nil {
		return err
	}
	e.center, e.centerV, e.h = st.Center, st.Best, st.Step
	e.iter, e.evals, e.best, e.bestX, e.history = st.Iter, st.Evals, st.OverallBest, st.OverallX, st.History
	e.rng = rng.New(st.RNGState)
	e.done = e.h < e.spec.MinStep
	return nil
}
