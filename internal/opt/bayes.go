package opt

import (
	"encoding/json"
	"math"

	"repro/internal/rng"
)

// bayesSpec is the params type of the Bayesian-optimization engine: a
// Gaussian process surrogate with an RBF kernel over the normalized box
// and an expected-improvement acquisition, after NOVA's Bayes-optimized
// constrained randomization. Its one setting is the budget.
type bayesSpec struct {
	// Iterations bounds the proposal rounds (default 50).
	Iterations int `json:"iterations,omitempty"`
}

const (
	// bayesInitRounds is the number of purely random space-filling
	// rounds before the surrogate takes over.
	bayesInitRounds = 2
	// bayesCandidates is the acquisition pool size per round.
	bayesCandidates = 256
	// bayesMaxObservations caps the GP training set: when exceeded, the
	// global best plus the most recent observations are kept, so the
	// O(n^3) Cholesky stays trivial.
	bayesMaxObservations = 64
	// bayesLengthScale is the RBF kernel length scale in normalized box
	// units.
	bayesLengthScale = 0.25
	// bayesNoise is the observation-noise variance on the standardized
	// objective: coverage scores are simulation averages and genuinely
	// noisy.
	bayesNoise = 0.1
	// bayesExplore is the expected-improvement xi offset.
	bayesExplore = 0.01
)

func (s *bayesSpec) build(cfg EngineConfig) Engine { return newBayesEngine(cfg, *s) }

type bayesEngine struct {
	frame
	iterations int
	// Training data: prior (knowledge-base) points first, then live
	// observations. Only live observations count toward evals/best.
	xs [][]float64
	ys []float64
}

func newBayesEngine(cfg EngineConfig, spec bayesSpec) *bayesEngine {
	e := &bayesEngine{iterations: iterationsOrDefault(spec.Iterations)}
	e.frame = newFrame("bayes", cfg, e)
	for _, p := range e.prior(cfg.Prior) {
		e.xs = append(e.xs, p.X)
		e.ys = append(e.ys, p.Value)
	}
	return e
}

// norm maps a point into the unit box.
func (e *bayesEngine) norm(x []float64) []float64 {
	w := e.hi - e.lo
	z := make([]float64, len(x))
	for i, v := range x {
		z[i] = (v - e.lo) / w
	}
	return z
}

func (e *bayesEngine) next(n int) [][]float64 {
	if e.iter >= e.iterations {
		return nil
	}
	batch := batchSize(n)
	switch {
	case e.evals == 0:
		// Round 1 always pays for the caller's starting point (the
		// skeleton sampler's best) before exploring.
		return e.fill([][]float64{append([]float64(nil), e.x0...)}, batch)
	case e.iter < bayesInitRounds || len(e.xs) < e.dim+2:
		return e.fill(nil, batch)
	}
	return e.acquire(batch)
}

// acquire fits the GP on the (capped) training set and returns the
// batch of candidates with the highest expected improvement.
func (e *bayesEngine) acquire(batch int) [][]float64 {
	xs, ys := e.trainingSet()
	gp := fitGP(xs, ys, e)

	// Half uniform exploration, half local refinement around the best.
	cands := e.fill(make([][]float64, 0, bayesCandidates), bayesCandidates/2)
	anchor := e.bestX
	if anchor == nil {
		anchor = e.x0
	}
	for len(cands) < bayesCandidates {
		cands = append(cands, e.jitterAround(anchor))
	}
	return topN(cands, func(c []float64) float64 {
		mu, sigma := gp.predict(e.norm(c))
		return expectedImprovement(mu, sigma, gp.yBest, bayesExplore)
	}, batch)
}

// trainingSet caps the GP inputs at bayesMaxObservations, keeping the
// global best plus the most recent observations.
func (e *bayesEngine) trainingSet() ([][]float64, []float64) {
	const cap = bayesMaxObservations
	if len(e.xs) <= cap {
		return e.xs, e.ys
	}
	bestIdx := 0
	for i, y := range e.ys {
		if y > e.ys[bestIdx] {
			bestIdx = i
		}
	}
	start := len(e.xs) - (cap - 1)
	xs := make([][]float64, 0, cap)
	ys := make([]float64, 0, cap)
	if bestIdx < start {
		xs = append(xs, e.xs[bestIdx])
		ys = append(ys, e.ys[bestIdx])
	}
	for i := start; i < len(e.xs); i++ {
		xs = append(xs, e.xs[i])
		ys = append(ys, e.ys[i])
	}
	return xs, ys
}

func (e *bayesEngine) learn(pts [][]float64, values []float64) {
	e.xs = append(e.xs, pts...)
	e.ys = append(e.ys, values...)
	e.endIteration(IterRecord{Best: maxOf(values)})
}

type bayesState struct {
	Iter     int          `json:"iter"`
	Evals    int          `json:"evals"`
	XS       [][]float64  `json:"xs"`
	YS       []float64    `json:"ys"`
	Best     float64      `json:"best"`
	BestX    []float64    `json:"best_x"`
	RNGState uint64       `json:"rng_state"`
	History  []IterRecord `json:"history"`
}

func (e *bayesEngine) state() any {
	return bayesState{
		Iter: e.iter, Evals: e.evals, XS: e.xs, YS: e.ys,
		Best: e.best, BestX: e.bestX, RNGState: e.rng.State(), History: e.history,
	}
}

func (e *bayesEngine) Restore(state json.RawMessage) error {
	var st bayesState
	if err := json.Unmarshal(state, &st); err != nil {
		return err
	}
	e.iter, e.evals, e.xs, e.ys = st.Iter, st.Evals, st.XS, st.YS
	e.best, e.bestX, e.history = st.Best, st.BestX, st.History
	e.rng = rng.New(st.RNGState)
	return nil
}

// gpModel is a fitted zero-mean GP on standardized observations.
type gpModel struct {
	zs    [][]float64 // normalized training inputs
	chol  []float64   // lower Cholesky factor of K + noise*I
	alpha []float64   // (K + noise*I)^-1 y~
	yMean float64
	yStd  float64
	yBest float64 // best standardized training value
}

func fitGP(xs [][]float64, ys []float64, e *bayesEngine) *gpModel {
	n := len(xs)
	m := &gpModel{zs: make([][]float64, n)}
	for i, x := range xs {
		m.zs[i] = e.norm(x)
	}
	for _, y := range ys {
		m.yMean += y
	}
	m.yMean /= float64(n)
	for _, y := range ys {
		d := y - m.yMean
		m.yStd += float64(d * d)
	}
	m.yStd = math.Sqrt(m.yStd / float64(n))
	if m.yStd == 0 {
		m.yStd = 1
	}
	yt := make([]float64, n)
	m.yBest = math.Inf(-1)
	for i, y := range ys {
		yt[i] = (y - m.yMean) / m.yStd
		if yt[i] > m.yBest {
			m.yBest = yt[i]
		}
	}
	k := make([]float64, n*n)
	for i := 0; i < n; i++ {
		for j := 0; j <= i; j++ {
			v := rbf(m.zs[i], m.zs[j])
			if i == j {
				v += bayesNoise
			}
			k[i*n+j] = v
			k[j*n+i] = v
		}
	}
	cholFactor(k, n)
	m.chol = k
	m.alpha = cholSolve(k, n, yt)
	return m
}

// predict returns the standardized posterior mean and stddev at z.
func (m *gpModel) predict(z []float64) (mu, sigma float64) {
	n := len(m.zs)
	kv := make([]float64, n)
	for i, zi := range m.zs {
		kv[i] = rbf(z, zi)
	}
	for i := 0; i < n; i++ {
		mu += float64(kv[i] * m.alpha[i])
	}
	v := forwardSolve(m.chol, n, kv)
	varZ := 1 + bayesNoise
	for _, vi := range v {
		varZ -= float64(vi * vi)
	}
	if varZ < 1e-12 {
		varZ = 1e-12
	}
	return mu, math.Sqrt(varZ)
}

func rbf(a, b []float64) float64 {
	d2 := 0.0
	for i := range a {
		d := a[i] - b[i]
		d2 += float64(d * d)
	}
	return math.Exp(-d2 / (2 * bayesLengthScale * bayesLengthScale))
}

// expectedImprovement is the EI acquisition for maximization on the
// standardized scale.
func expectedImprovement(mu, sigma, yBest, xi float64) float64 {
	d := mu - yBest - xi
	u := d / sigma
	return float64(d*stdNormCDF(u)) + float64(sigma*stdNormPDF(u))
}

func stdNormPDF(u float64) float64 { return math.Exp(-u*u/2) / math.Sqrt(2*math.Pi) }
func stdNormCDF(u float64) float64 { return 0.5 * math.Erfc(-u/math.Sqrt2) }

// cholFactor computes the lower Cholesky factor of the SPD matrix a
// (n×n row-major) in place, with a tiny diagonal floor for numerical
// safety — the matrices here always carry an explicit noise/ridge term.
func cholFactor(a []float64, n int) {
	for j := 0; j < n; j++ {
		d := a[j*n+j]
		for k := 0; k < j; k++ {
			d -= float64(a[j*n+k] * a[j*n+k])
		}
		if d < 1e-12 {
			d = 1e-12
		}
		d = math.Sqrt(d)
		a[j*n+j] = d
		for i := j + 1; i < n; i++ {
			s := a[i*n+j]
			for k := 0; k < j; k++ {
				s -= float64(a[i*n+k] * a[j*n+k])
			}
			a[i*n+j] = s / d
		}
		for i := 0; i < j; i++ {
			a[i*n+j] = 0
		}
	}
}

// forwardSolve solves L v = b for lower-triangular L.
func forwardSolve(l []float64, n int, b []float64) []float64 {
	v := make([]float64, n)
	for i := 0; i < n; i++ {
		s := b[i]
		for k := 0; k < i; k++ {
			s -= float64(l[i*n+k] * v[k])
		}
		v[i] = s / l[i*n+i]
	}
	return v
}

// cholSolve solves L L^T x = b.
func cholSolve(l []float64, n int, b []float64) []float64 {
	v := forwardSolve(l, n, b)
	x := make([]float64, n)
	for i := n - 1; i >= 0; i-- {
		s := v[i]
		for k := i + 1; k < n; k++ {
			s -= float64(l[k*n+i] * x[k])
		}
		x[i] = s / l[i*n+i]
	}
	return x
}
