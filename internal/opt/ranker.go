package opt

import (
	"encoding/json"
	"fmt"
	"math"

	"repro/internal/rng"
)

// rankerSpec is the params type of the supervised test-selection
// engine: an online ridge regression that predicts the objective (novel
// coverage per candidate) from past hit statistics, after Masamba &
// Eder. The cross-campaign knowledge base's harvested (weights, score)
// pairs are folded into the model before the first proposal, so a warm
// daemon ranks candidates usefully from round one. Its one setting is
// the budget.
type rankerSpec struct {
	// Iterations bounds the proposal rounds (default 50).
	Iterations int `json:"iterations,omitempty"`
}

const (
	// rankerCandidates is the scored pool size per round.
	rankerCandidates = 128
	// rankerExplore is the fraction of each batch drawn uniformly at
	// random instead of by predicted rank.
	rankerExplore = 0.25
	// rankerRidge is the L2 regularizer on the regression weights.
	rankerRidge = 1.0
)

func (s *rankerSpec) build(cfg EngineConfig) Engine { return newRankerEngine(cfg, *s) }

type rankerEngine struct {
	frame
	iterations int
	nfea       int // 1 + 2*dim: bias, linear, quadratic per coordinate

	// Ridge-regression normal equations, accumulated online:
	// a = Ridge*I + sum phi phi^T, b = sum y*phi.
	a []float64
	b []float64

	priorBest []float64 // best knowledge-base point, exploited directly
}

func newRankerEngine(cfg EngineConfig, spec rankerSpec) *rankerEngine {
	e := &rankerEngine{iterations: iterationsOrDefault(spec.Iterations)}
	e.frame = newFrame("ranker", cfg, e)
	e.nfea = 1 + 2*e.dim
	e.a = make([]float64, e.nfea*e.nfea)
	e.b = make([]float64, e.nfea)
	for i := 0; i < e.nfea; i++ {
		e.a[i*e.nfea+i] = rankerRidge
	}
	priorBestVal := math.Inf(-1)
	for _, p := range e.prior(cfg.Prior) {
		e.fit(p.X, p.Value)
		if p.Value > priorBestVal {
			priorBestVal = p.Value
			e.priorBest = p.X
		}
	}
	return e
}

// features maps a point to [1, z_i..., z_i^2...] over the unit box.
func (e *rankerEngine) features(x []float64) []float64 {
	w := e.hi - e.lo
	phi := make([]float64, e.nfea)
	phi[0] = 1
	for i, v := range x {
		z := (v - e.lo) / w
		phi[1+i] = z
		phi[1+e.dim+i] = z * z
	}
	return phi
}

// fit folds one (point, value) pair into the normal equations.
func (e *rankerEngine) fit(x []float64, y float64) {
	phi := e.features(x)
	for i := 0; i < e.nfea; i++ {
		for j := 0; j < e.nfea; j++ {
			e.a[i*e.nfea+j] += float64(phi[i] * phi[j])
		}
		e.b[i] += float64(y * phi[i])
	}
}

// weights solves the normal equations for the current model.
func (e *rankerEngine) weights() []float64 {
	l := append([]float64(nil), e.a...)
	cholFactor(l, e.nfea)
	return cholSolve(l, e.nfea, e.b)
}

func (e *rankerEngine) predict(w, x []float64) float64 {
	phi := e.features(x)
	s := 0.0
	for i, wi := range w {
		s += float64(wi * phi[i])
	}
	return s
}

func (e *rankerEngine) next(n int) [][]float64 {
	if e.iter >= e.iterations {
		return nil
	}
	batch := batchSize(n)
	pts := make([][]float64, 0, batch)
	if e.evals == 0 {
		// Round 1 pays for the caller's starting point first, and — the
		// warm-start payoff — the knowledge base's best point next.
		pts = append(pts, append([]float64(nil), e.x0...))
		if e.priorBest != nil && len(pts) < batch {
			pts = append(pts, append([]float64(nil), e.priorBest...))
		}
	}
	nExplore := int(float64(batch) * rankerExplore)
	if nRank := batch - len(pts) - nExplore; nRank > 0 {
		pts = append(pts, e.rank(nRank)...)
	}
	return e.fill(pts, batch)
}

// rank scores a candidate pool with the regression model and returns
// the top n by predicted value.
func (e *rankerEngine) rank(n int) [][]float64 {
	cands := make([][]float64, 0, rankerCandidates)
	for _, anchor := range [][]float64{e.bestX, e.priorBest} {
		if anchor == nil {
			continue
		}
		cands = append(cands, append([]float64(nil), anchor...))
		for i := 0; i < rankerCandidates/8; i++ {
			cands = append(cands, e.jitterAround(anchor))
		}
	}
	if len(cands) == 0 {
		for i := 0; i < rankerCandidates/8; i++ {
			cands = append(cands, e.jitterAround(e.x0))
		}
	}
	w := e.weights()
	return topN(e.fill(cands, rankerCandidates), func(c []float64) float64 { return e.predict(w, c) }, n)
}

func (e *rankerEngine) learn(pts [][]float64, values []float64) {
	for i, x := range pts {
		e.fit(x, values[i])
	}
	e.endIteration(IterRecord{Best: maxOf(values)})
}

type rankerState struct {
	Iter     int          `json:"iter"`
	Evals    int          `json:"evals"`
	A        []float64    `json:"a"`
	B        []float64    `json:"b"`
	Best     float64      `json:"best"`
	BestX    []float64    `json:"best_x"`
	RNGState uint64       `json:"rng_state"`
	History  []IterRecord `json:"history"`
}

func (e *rankerEngine) state() any {
	return rankerState{
		Iter: e.iter, Evals: e.evals, A: e.a, B: e.b,
		Best: e.best, BestX: e.bestX, RNGState: e.rng.State(), History: e.history,
	}
}

func (e *rankerEngine) Restore(state json.RawMessage) error {
	var st rankerState
	if err := json.Unmarshal(state, &st); err != nil {
		return err
	}
	if len(st.A) != e.nfea*e.nfea || len(st.B) != e.nfea {
		return fmt.Errorf("opt: %s: checkpoint model size mismatch", e.name)
	}
	e.iter, e.evals, e.a, e.b = st.Iter, st.Evals, st.A, st.B
	e.best, e.bestX, e.history = st.Best, st.BestX, st.History
	e.rng = rng.New(st.RNGState)
	return nil
}
