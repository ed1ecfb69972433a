package opt

import (
	"encoding/json"

	"repro/internal/obs"
	"repro/internal/rng"
)

// ifSpec holds implicit filtering's settings: the flow's budget and the
// one ablation switch.
type ifSpec struct {
	// Directions is the number of random probe directions per iteration
	// — the paper's n (default 10).
	Directions int `json:"directions,omitempty"`
	// Iterations bounds the iteration count (default 50).
	Iterations int `json:"iterations,omitempty"`
	// NoResampleCenter disables the paper's per-iteration center
	// re-evaluation (set only by TestClaims' resampling row).
	NoResampleCenter bool `json:"no_resample_center,omitempty"`
}

const (
	// ifInitialStepDiv sets the initial stencil size h to the box width
	// over it.
	ifInitialStepDiv = 4
	// ifMinStepDiv ends the run when h shrinks below the box width over
	// it.
	ifMinStepDiv = 64
)

func (s ifSpec) withDefaults() ifSpec {
	if s.Directions <= 0 {
		s.Directions = 10
	}
	s.Iterations = iterationsOrDefault(s.Iterations)
	return s
}
func (s *ifSpec) build(cfg EngineConfig) Engine { return newIFEngine(cfg, *s) }

// ifEngine is the paper's Algorithm 1 as a policy. Its first batch is
// the starting point alone; each iteration then proposes one batch
// [center?, probe1..probeN] — the center resample first, then the
// stencil probes. The probe directions come from the engine's own RNG
// and the probes are computed from the previous iteration's center, so
// the batch order is fixed: the default flow's golden reports depend on
// it.
type ifEngine struct {
	frame
	spec    ifSpec
	center  []float64 // nil until the starting point is observed
	centerV float64   // the center's latest value
	h       float64
	minStep float64
	sp      *obs.Span
}

func newIFEngine(cfg EngineConfig, spec ifSpec) *ifEngine {
	e := &ifEngine{spec: spec.withDefaults()}
	e.frame = newFrame(DefaultEngine, cfg, e)
	e.h = (e.hi - e.lo) / ifInitialStepDiv
	e.minStep = (e.hi - e.lo) / ifMinStepDiv
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
	for d := 0; d < e.spec.Directions; d++ {
		dir := randomDirection(e.rng, e.dim)
		cand := make([]float64, e.dim)
		for i := range cand {
			cand[i] = e.center[i] + float64(dir[i]*e.h)
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
	e.done = e.h < e.minStep
}

// iterState is the implicit-filtering engine's checkpoint, taken after
// a completed iteration: the stencil state, the running best, the RNG's
// raw state, and the history so far — everything needed to re-enter the
// loop at the next iteration and reproduce the uninterrupted run's
// trajectory bit for bit. It round-trips through JSON exactly (Go's
// float64 encoding is shortest-representation, which decodes to the
// identical bits), which is what makes journal replay byte-faithful.
type iterState struct {
	Iter        int          `json:"iter"`
	Center      []float64    `json:"center"`
	Best        float64      `json:"best"`
	Step        float64      `json:"step"`
	OverallBest float64      `json:"overall_best"`
	OverallX    []float64    `json:"overall_x"`
	Evals       int          `json:"evals"`
	RNGState    uint64       `json:"rng_state"`
	History     []IterRecord `json:"history"`
}

// state is the iterState of the completed iteration. The initial center
// evaluation is not a boundary (the frame checkpoints only after
// iteration 1), so a kill before iteration 1 re-pays only that eval.
func (e *ifEngine) state() any {
	return iterState{
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
	var st iterState
	if err := json.Unmarshal(state, &st); err != nil {
		return err
	}
	e.center, e.centerV, e.h = st.Center, st.Best, st.Step
	e.iter, e.evals, e.best, e.bestX, e.history = st.Iter, st.Evals, st.OverallBest, st.OverallX, st.History
	e.rng = rng.New(st.RNGState)
	e.done = e.h < e.minStep
	return nil
}
