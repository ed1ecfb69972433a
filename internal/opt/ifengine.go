package opt

import (
	"context"
	"encoding/json"
	"fmt"

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
	// re-evaluation (ablations only).
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

func init() {
	Register(EngineDef{
		Name: DefaultEngine,
		Make: func(cfg EngineConfig, params json.RawMessage) (Engine, error) {
			var spec IFSpec
			if err := decodeParams(params, &spec); err != nil {
				return nil, err
			}
			return newIFEngine(cfg, spec), nil
		},
		Params: func() any { return new(IFSpec) },
	})
}

const (
	stencilFresh     = iota // next proposal is the initial center evaluation
	stencilIterating        // alternating full iterations
	stencilDone
)

// ifEngine is the paper's Algorithm 1 as a Propose/Observe state
// machine. Each iteration proposes one batch [center?, probe1..probeN]
// — the center resample first, then the stencil probes. The probe
// directions come from the engine's own RNG and the probes are computed
// from the previous iteration's center, so the batch order is fixed:
// the default flow's golden reports depend on it.
type ifEngine struct {
	spec        IFSpec
	lo, hi      float64
	maxEvals    int
	targetValue float64
	rng         *rng.RNG
	rec         *obs.Recorder
	mEvals      *obs.Counter
	oo          optObs

	dim int
	x0  []float64

	phase       int
	center      []float64
	best        float64
	h           float64
	overallBest float64
	overallX    []float64
	evals       int
	iter        int // completed iterations
	history     []IterRecord

	pending       [][]float64 // points of the outstanding Propose, nil between rounds
	pendingProbes [][]float64 // the probe suffix of pending
	pendingCenter bool        // pending[0] is the center resample
	sp            *obs.Span
}

func newIFEngine(cfg EngineConfig, spec IFSpec) *ifEngine {
	cfg = cfg.withDefaults()
	spec = spec.withDefaults(cfg.Lo, cfg.Hi)
	e := &ifEngine{
		spec:        spec,
		lo:          cfg.Lo,
		hi:          cfg.Hi,
		maxEvals:    cfg.MaxEvals,
		targetValue: cfg.TargetValue,
		rng:         cfg.RNG,
		rec:         cfg.Recorder,
		mEvals:      cfg.Recorder.Counter("opt.evals"),
		oo:          newOptObs(cfg.Recorder),
		dim:         len(cfg.X0),
		x0:          append([]float64(nil), cfg.X0...),
		h:           spec.InitialStep,
		history:     make([]IterRecord, 0, historyCap(spec.Iterations)),
	}
	clampTo(e.x0, e.lo, e.hi)
	return e
}

func (e *ifEngine) Name() string { return DefaultEngine }

// remaining returns the evals left under the budget (0 = unlimited,
// reported as a large budget).
func (e *ifEngine) remaining() int {
	if e.maxEvals <= 0 {
		return 1 << 30
	}
	return e.maxEvals - e.evals
}

func (e *ifEngine) Propose(ctx context.Context, _ int) ([][]float64, error) {
	if e.pending != nil {
		return nil, fmt.Errorf("opt: %s: Propose before Observe", e.Name())
	}
	switch e.phase {
	case stencilDone:
		return nil, nil
	case stencilFresh:
		e.pending = [][]float64{append([]float64(nil), e.x0...)}
		e.pendingCenter = false
		e.evals++
		e.mEvals.Add(1)
		return e.pending, nil
	}
	if e.iter >= e.spec.Iterations || e.remaining() <= 0 {
		e.phase = stencilDone
		return nil, nil
	}
	e.sp = e.rec.Span("opt", "iteration")
	pts := make([][]float64, 0, e.spec.Directions+1)
	e.pendingCenter = !e.spec.NoResampleCenter
	if e.pendingCenter {
		pts = append(pts, append([]float64(nil), e.center...))
	}
	// The center resample is charged before the probe count is clamped
	// to the remaining budget.
	nProbes := e.spec.Directions
	if e.maxEvals > 0 {
		if rem := e.maxEvals - e.evals - len(pts); nProbes > rem {
			nProbes = rem
		}
	}
	if nProbes < 0 {
		nProbes = 0
	}
	probes := make([][]float64, 0, nProbes)
	for d := 0; d < nProbes; d++ {
		dir := randomDirection(e.rng, e.dim)
		cand := make([]float64, e.dim)
		for i := range cand {
			cand[i] = e.center[i] + dir[i]*e.h
		}
		clampTo(cand, e.lo, e.hi)
		probes = append(probes, cand)
	}
	e.pendingProbes = probes
	pts = append(pts, probes...)
	e.pending = pts
	e.evals += len(pts)
	e.mEvals.Add(uint64(len(pts)))
	return pts, nil
}

func (e *ifEngine) Observe(values []float64) error {
	if e.pending == nil {
		return fmt.Errorf("opt: %s: Observe without Propose", e.Name())
	}
	if len(values) != len(e.pending) {
		return fmt.Errorf("opt: %s: %d values for %d points", e.Name(), len(values), len(e.pending))
	}
	defer func() { e.pending, e.pendingProbes = nil, nil }()

	if e.phase == stencilFresh {
		e.center = e.pending[0]
		e.best = values[0]
		e.overallBest = e.best
		e.overallX = append([]float64(nil), e.center...)
		e.phase = stencilIterating
		return nil
	}

	if e.pendingCenter {
		e.best = values[0]
		e.oo.resamples.Inc()
		values = values[1:]
	}
	iterBest := e.best
	nextCenter := e.center
	moved := false
	for d, val := range values {
		if val > iterBest {
			iterBest = val
			nextCenter = e.pendingProbes[d]
			moved = true
		}
	}
	if moved {
		e.center = nextCenter
		e.best = iterBest
	} else {
		e.h /= 2
		e.oo.halvings.Inc()
	}
	if iterBest > e.overallBest {
		e.overallBest = iterBest
		e.overallX = append([]float64(nil), nextCenter...)
	}
	e.iter++
	rec := IterRecord{Iter: e.iter, Best: iterBest, Step: e.h, Moved: moved, Evals: e.evals}
	e.history = append(e.history, rec)
	if e.sp != nil {
		e.sp.SetArg("iter", e.iter)
		e.sp.SetArg("best", iterBest)
		e.sp.SetArg("moved", moved)
		e.sp.End()
		e.sp = nil
	}
	e.oo.iter(e.Name(), rec, e.overallBest)
	if (e.targetValue > 0 && e.overallBest >= e.targetValue) || e.h < e.spec.MinStep {
		e.phase = stencilDone
	}
	return nil
}

func (e *ifEngine) Result() Result {
	return Result{X: e.overallX, Value: e.overallBest, Evals: e.evals, History: e.history}
}

// state snapshots the run, valid after any completed iteration.
func (e *ifEngine) state() IterState {
	return IterState{
		Iter:        e.iter,
		Center:      append([]float64(nil), e.center...),
		Best:        e.best,
		Step:        e.h,
		OverallBest: e.overallBest,
		OverallX:    append([]float64(nil), e.overallX...),
		Evals:       e.evals,
		RNGState:    e.rng.State(),
		History:     append([]IterRecord(nil), e.history...),
	}
}

func (e *ifEngine) Checkpoint() (json.RawMessage, error) {
	// Stable boundaries are completed iterations — the initial center
	// evaluation is not one, so a kill before iteration 1 re-pays only
	// that single eval on resume.
	if e.iter == 0 || e.pending != nil {
		return nil, nil
	}
	return json.Marshal(e.state())
}

func (e *ifEngine) Restore(state json.RawMessage) error {
	var st IterState
	if err := json.Unmarshal(state, &st); err != nil {
		return err
	}
	e.restoreState(st)
	return nil
}

// restoreState re-enters the run: trajectory state from the checkpoint,
// RNG reseeded from the raw state, and the stop conditions the
// uninterrupted run checked right after that iteration re-applied so a
// finished run stays finished.
func (e *ifEngine) restoreState(st IterState) {
	e.center = append([]float64(nil), st.Center...)
	e.best = st.Best
	e.h = st.Step
	e.overallBest = st.OverallBest
	e.overallX = append([]float64(nil), st.OverallX...)
	e.evals = st.Evals
	e.iter = st.Iter
	e.history = append(e.history[:0], st.History...)
	e.rng = rng.New(st.RNGState)
	e.phase = stencilIterating
	if (e.targetValue > 0 && e.overallBest >= e.targetValue) || e.h < e.spec.MinStep {
		e.phase = stencilDone
	}
}
