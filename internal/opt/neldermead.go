package opt

import (
	"encoding/json"
	"fmt"
	"sort"
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
)

type nmVertex struct {
	X []float64 `json:"x"`
	V float64   `json:"v"`
}

// nmEngine is the classic simplex method (reflection, expansion,
// contraction, shrink) as a policy. Within an iteration the steps are
// data-dependent and inherently sequential, so most proposals are single
// points; the initial simplex and the shrink step propose their
// independent points as one batch, which the frame cuts to the budget.
// Its Result is the simplex's best vertex.
type nmEngine struct {
	frame
	spec    NelderMeadSpec
	stage   int
	simplex []nmVertex

	// Per-iteration scratch, valid from the reflection proposal to the
	// iteration's end.
	centroid  []float64
	worst     nmVertex
	reflected []float64
	rv        float64
}

func newNMEngine(cfg EngineConfig, spec NelderMeadSpec) *nmEngine {
	e := &nmEngine{}
	e.frame = newFrame("nelder_mead", cfg, e)
	e.spec = spec.withDefaults(e.lo, e.hi)
	return e
}

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

func (e *nmEngine) next(int) [][]float64 {
	switch e.stage {
	case nmInit:
		pts := make([][]float64, 0, e.dim+1)
		pts = append(pts, append([]float64(nil), e.x0...))
		for i := 0; i < e.dim; i++ {
			x := append([]float64(nil), e.x0...)
			x[i] += e.spec.InitialStep
			clampTo(x, e.lo, e.hi)
			pts = append(pts, x)
		}
		return pts
	case nmStart:
		if e.iter >= e.spec.Iterations {
			return nil
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
		return [][]float64{e.reflected}
	case nmExpand:
		return [][]float64{e.point(nmGamma)}
	case nmContract:
		return [][]float64{e.point(-nmRho)}
	case nmShrink:
		// Shrink every non-best vertex toward the best one; the moved
		// vertices are independent, so they go out as one batch.
		best := e.simplex[0].X
		pts := make([][]float64, e.dim)
		for i := range pts {
			x := make([]float64, e.dim)
			for j, v := range e.simplex[i+1].X {
				x[j] = best[j] + nmSigma*(v-best[j])
			}
			pts[i] = x
		}
		return pts
	}
	return nil
}

func (e *nmEngine) learn(pts [][]float64, values []float64) {
	switch e.stage {
	case nmInit:
		e.simplex = make([]nmVertex, len(pts))
		for i, x := range pts {
			e.simplex[i] = nmVertex{X: x, V: values[i]}
		}
		e.stage = nmStart
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
	case nmExpand:
		if ev := values[0]; ev > e.rv {
			e.simplex[e.dim] = nmVertex{X: pts[0], V: ev}
		} else {
			e.simplex[e.dim] = nmVertex{X: e.reflected, V: e.rv}
		}
		e.finishIteration()
	case nmContract:
		if cv := values[0]; cv > e.worst.V {
			e.simplex[e.dim] = nmVertex{X: pts[0], V: cv}
			e.finishIteration()
		} else {
			e.stage = nmShrink
		}
	case nmShrink:
		// A budget-cut batch moves only the vertices it evaluated.
		for i, v := range values {
			e.simplex[i+1] = nmVertex{X: pts[i], V: v}
		}
		e.finishIteration()
	}
}

// finishIteration records the iteration's best vertex. At an iteration
// boundary the simplex holds the best value observed so far, so the
// frame's running best is the Fig. 6 best-so-far.
func (e *nmEngine) finishIteration() {
	e.endIteration(IterRecord{Best: e.top().V})
	e.stage = nmStart
}

// top returns the simplex's best vertex (the first on a tie).
func (e *nmEngine) top() nmVertex {
	best := e.simplex[0]
	for _, vx := range e.simplex[1:] {
		if vx.V > best.V {
			best = vx
		}
	}
	return best
}

func (e *nmEngine) Result() Result {
	if len(e.simplex) == 0 {
		return Result{Evals: e.evals, History: e.history}
	}
	top := e.top()
	return Result{X: top.X, Value: top.V, Evals: e.evals, History: e.history}
}

type nmState struct {
	Iter     int          `json:"iter"`
	Evals    int          `json:"evals"`
	Simplex  []nmVertex   `json:"simplex"`
	TopSoFar float64      `json:"top_so_far"`
	History  []IterRecord `json:"history"`
}

// state is taken at completed iterations with the simplex fully
// evaluated, never mid-iteration.
func (e *nmEngine) state() any {
	if e.stage != nmStart {
		return nil
	}
	return nmState{Iter: e.iter, Evals: e.evals, Simplex: e.simplex, TopSoFar: e.best, History: e.history}
}

func (e *nmEngine) Restore(state json.RawMessage) error {
	var st nmState
	if err := json.Unmarshal(state, &st); err != nil {
		return err
	}
	if len(st.Simplex) != e.dim+1 {
		return fmt.Errorf("opt: %s: checkpoint simplex has %d vertices, want %d", e.name, len(st.Simplex), e.dim+1)
	}
	e.iter, e.evals, e.simplex, e.history = st.Iter, st.Evals, st.Simplex, st.History
	e.best, e.bestX = st.TopSoFar, e.top().X
	e.stage = nmStart
	return nil
}
