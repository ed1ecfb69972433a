package opt

import (
	"context"
	"encoding/json"
	"fmt"
	"sort"

	"repro/internal/obs"
)

// NelderMeadSpec holds the simplex method's solver-specific knobs.
type NelderMeadSpec struct {
	// Iterations bounds the iteration count (default 50).
	Iterations int `json:"iterations,omitempty"`
	// InitialStep offsets each non-origin vertex of the initial simplex
	// along one coordinate (default: a quarter of the box width).
	InitialStep float64 `json:"initial_step,omitempty"`
}

func (s NelderMeadSpec) withDefaults(lo, hi float64) NelderMeadSpec {
	if s.Iterations <= 0 {
		s.Iterations = 50
	}
	if s.InitialStep <= 0 {
		s.InitialStep = (hi - lo) / 4
	}
	return s
}

func init() {
	Register(EngineDef{
		Name: "nelder_mead",
		Make: func(cfg EngineConfig, params json.RawMessage) (Engine, error) {
			var spec NelderMeadSpec
			if err := decodeParams(params, &spec); err != nil {
				return nil, err
			}
			return newNMEngine(cfg, spec), nil
		},
		Params: func() any { return new(NelderMeadSpec) },
	})
}

// Simplex coefficients (classic Nelder-Mead).
const (
	nmAlpha = 1.0 // reflection
	nmGamma = 2.0 // expansion
	nmRho   = 0.5 // contraction
	nmSigma = 0.5 // shrink
)

// nmEngine stages: which proposal is outstanding or due next.
const (
	nmInit     = iota // next proposal is the whole initial simplex
	nmStart           // iteration boundary: next proposal is the reflection
	nmReflect         // reflection outstanding
	nmExpand          // expansion outstanding
	nmContract        // contraction outstanding
	nmShrink          // shrink batch outstanding
	nmDone
)

type nmVertex struct {
	X []float64 `json:"x"`
	V float64   `json:"v"`
}

// nmEngine is the classic simplex method (reflection, expansion,
// contraction, shrink) as a Propose/Observe state machine. Within an
// iteration the steps are data-dependent and inherently sequential, so
// most proposals are single points; the initial simplex and the shrink
// step propose their independent points as one batch.
type nmEngine struct {
	spec        NelderMeadSpec
	lo, hi      float64
	maxEvals    int
	targetValue float64
	rec         *obs.Recorder
	mEvals      *obs.Counter
	oo          optObs

	dim int
	x0  []float64

	stage    int
	simplex  []nmVertex
	iter     int
	evals    int
	topSoFar float64
	history  []IterRecord

	// Per-iteration scratch, valid from the reflection proposal to the
	// iteration's end.
	centroid  []float64
	worst     nmVertex
	reflected []float64
	rv        float64
	pending   [][]float64
}

func newNMEngine(cfg EngineConfig, spec NelderMeadSpec) *nmEngine {
	cfg = cfg.withDefaults()
	spec = spec.withDefaults(cfg.Lo, cfg.Hi)
	e := &nmEngine{
		spec:        spec,
		lo:          cfg.Lo,
		hi:          cfg.Hi,
		maxEvals:    cfg.MaxEvals,
		targetValue: cfg.TargetValue,
		rec:         cfg.Recorder,
		mEvals:      cfg.Recorder.Counter("opt.evals"),
		oo:          newOptObs(cfg.Recorder),
		dim:         len(cfg.X0),
		x0:          append([]float64(nil), cfg.X0...),
	}
	clampTo(e.x0, e.lo, e.hi)
	return e
}

func (e *nmEngine) Name() string { return "nelder_mead" }

// point generates centroid + coef*(centroid - worst), clamped — the
// reflection/expansion/contraction family.
func (e *nmEngine) point(coef float64) []float64 {
	x := make([]float64, e.dim)
	for i := range x {
		x[i] = e.centroid[i] + coef*(e.centroid[i]-e.worst.X[i])
	}
	clampTo(x, e.lo, e.hi)
	return x
}

func (e *nmEngine) propose(pts [][]float64) [][]float64 {
	e.pending = pts
	e.evals += len(pts)
	e.mEvals.Add(uint64(len(pts)))
	return pts
}

func (e *nmEngine) Propose(_ context.Context, _ int) ([][]float64, error) {
	if e.pending != nil {
		return nil, fmt.Errorf("opt: %s: Propose before Observe", e.Name())
	}
	switch e.stage {
	case nmDone:
		return nil, nil
	case nmInit:
		pts := make([][]float64, 0, e.dim+1)
		pts = append(pts, append([]float64(nil), e.x0...))
		for i := 0; i < e.dim; i++ {
			x := append([]float64(nil), e.x0...)
			x[i] += e.spec.InitialStep
			clampTo(x, e.lo, e.hi)
			pts = append(pts, x)
		}
		return e.propose(pts), nil
	case nmStart:
		if e.iter >= e.spec.Iterations || (e.maxEvals > 0 && e.evals >= e.maxEvals) {
			e.stage = nmDone
			return nil, nil
		}
		// Sort descending: best first (we maximize).
		sort.Slice(e.simplex, func(i, j int) bool { return e.simplex[i].V > e.simplex[j].V })
		e.worst = e.simplex[e.dim]
		e.centroid = make([]float64, e.dim)
		for _, vx := range e.simplex[:e.dim] {
			for i := range e.centroid {
				e.centroid[i] += vx.X[i] / float64(e.dim)
			}
		}
		e.reflected = e.point(nmAlpha)
		e.stage = nmReflect
		return e.propose([][]float64{e.reflected}), nil
	case nmExpand:
		return e.propose([][]float64{e.point(nmGamma)}), nil
	case nmContract:
		return e.propose([][]float64{e.point(-nmRho)}), nil
	case nmShrink:
		// Shrink every non-best vertex toward the best one; the moved
		// vertices are independent, so they go out as one batch.
		best := e.simplex[0]
		pts := make([][]float64, 0, e.dim)
		for i := 1; i <= e.dim; i++ {
			x := e.simplex[i].X
			for j := range x {
				x[j] = best.X[j] + nmSigma*(x[j]-best.X[j])
			}
			pts = append(pts, x)
		}
		return e.propose(pts), nil
	}
	return nil, fmt.Errorf("opt: %s: bad stage %d", e.Name(), e.stage)
}

func (e *nmEngine) Observe(values []float64) error {
	if e.pending == nil {
		return fmt.Errorf("opt: %s: Observe without Propose", e.Name())
	}
	if len(values) != len(e.pending) {
		return fmt.Errorf("opt: %s: %d values for %d points", e.Name(), len(values), len(e.pending))
	}
	pending := e.pending
	e.pending = nil
	switch e.stage {
	case nmInit:
		e.simplex = make([]nmVertex, len(pending))
		for i, x := range pending {
			e.simplex[i] = nmVertex{X: x, V: values[i]}
		}
		e.stage = nmStart
		return nil
	case nmReflect:
		e.rv = values[0]
		switch {
		case e.rv > e.simplex[0].V:
			e.stage = nmExpand
		case e.rv > e.simplex[e.dim-1].V:
			e.simplex[e.dim] = nmVertex{X: e.reflected, V: e.rv}
			e.finishIteration()
		default:
			e.stage = nmContract
		}
		return nil
	case nmExpand:
		if ev := values[0]; ev > e.rv {
			e.simplex[e.dim] = nmVertex{X: pending[0], V: ev}
		} else {
			e.simplex[e.dim] = nmVertex{X: e.reflected, V: e.rv}
		}
		e.finishIteration()
		return nil
	case nmContract:
		if cv := values[0]; cv > e.worst.V {
			e.simplex[e.dim] = nmVertex{X: pending[0], V: cv}
			e.finishIteration()
		} else {
			e.stage = nmShrink
		}
		return nil
	case nmShrink:
		for i := 1; i <= e.dim; i++ {
			e.simplex[i].V = values[i-1]
		}
		e.finishIteration()
		return nil
	}
	return fmt.Errorf("opt: %s: bad stage %d", e.Name(), e.stage)
}

func (e *nmEngine) finishIteration() {
	e.iter++
	top := e.simplex[0].V
	for _, vx := range e.simplex[1:] {
		if vx.V > top {
			top = vx.V
		}
	}
	if e.iter == 1 || top > e.topSoFar {
		e.topSoFar = top
	}
	rec := IterRecord{Iter: e.iter, Best: top, Evals: e.evals}
	e.history = append(e.history, rec)
	e.oo.iter(e.Name(), rec, e.topSoFar)
	e.stage = nmStart
	if e.targetValue > 0 && top >= e.targetValue {
		e.stage = nmDone
	}
}

func (e *nmEngine) Result() Result {
	if len(e.simplex) == 0 {
		return Result{Evals: e.evals, History: e.history}
	}
	bestIdx := 0
	for i, vx := range e.simplex {
		if vx.V > e.simplex[bestIdx].V {
			bestIdx = i
		}
	}
	return Result{X: e.simplex[bestIdx].X, Value: e.simplex[bestIdx].V, Evals: e.evals, History: e.history}
}

type nmState struct {
	Iter     int          `json:"iter"`
	Evals    int          `json:"evals"`
	Simplex  []nmVertex   `json:"simplex"`
	TopSoFar float64      `json:"top_so_far"`
	History  []IterRecord `json:"history"`
}

func (e *nmEngine) Checkpoint() (json.RawMessage, error) {
	// Stable boundaries: completed iterations with the simplex fully
	// evaluated (nmStart or nmDone), never mid-iteration.
	if e.pending != nil || e.iter == 0 || (e.stage != nmStart && e.stage != nmDone) {
		return nil, nil
	}
	st := nmState{Iter: e.iter, Evals: e.evals, TopSoFar: e.topSoFar,
		Simplex: make([]nmVertex, len(e.simplex)),
		History: append([]IterRecord(nil), e.history...)}
	for i, vx := range e.simplex {
		st.Simplex[i] = nmVertex{X: append([]float64(nil), vx.X...), V: vx.V}
	}
	return json.Marshal(st)
}

func (e *nmEngine) Restore(state json.RawMessage) error {
	var st nmState
	if err := json.Unmarshal(state, &st); err != nil {
		return err
	}
	if len(st.Simplex) != e.dim+1 {
		return fmt.Errorf("opt: %s: checkpoint simplex has %d vertices, want %d", e.Name(), len(st.Simplex), e.dim+1)
	}
	e.iter = st.Iter
	e.evals = st.Evals
	e.topSoFar = st.TopSoFar
	e.simplex = st.Simplex
	e.history = append(e.history[:0], st.History...)
	e.stage = nmStart
	// Re-apply the stop condition the uninterrupted run checked right
	// after this iteration.
	if n := len(e.history); n > 0 && e.targetValue > 0 && e.history[n-1].Best >= e.targetValue {
		e.stage = nmDone
	}
	return nil
}
