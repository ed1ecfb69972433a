package opt

import (
	"context"
	"encoding/json"
	"fmt"
	"math"
	"sort"

	"repro/internal/obs"
	"repro/internal/rng"
)

// BayesSpec holds the Bayesian-optimization engine's knobs: a Gaussian
// process surrogate with an RBF kernel over the normalized box and an
// expected-improvement acquisition, after NOVA's Bayes-optimized
// constrained randomization.
type BayesSpec struct {
	// Iterations bounds the proposal rounds (default 50).
	Iterations int `json:"iterations,omitempty"`
	// InitRounds is the number of purely random space-filling rounds
	// before the surrogate takes over (default 2).
	InitRounds int `json:"init_rounds,omitempty"`
	// Candidates is the acquisition pool size per round (default 256).
	Candidates int `json:"candidates,omitempty"`
	// MaxObservations caps the GP training set: when exceeded, the
	// global best plus the most recent observations are kept (default
	// 64 — the O(n^3) Cholesky stays trivial).
	MaxObservations int `json:"max_observations,omitempty"`
	// LengthScale is the RBF kernel length scale in normalized box
	// units (default 0.25).
	LengthScale float64 `json:"length_scale,omitempty"`
	// Noise is the observation-noise variance on the standardized
	// objective (default 0.1 — coverage scores are simulation averages
	// and genuinely noisy).
	Noise float64 `json:"noise,omitempty"`
	// Explore is the expected-improvement xi offset (default 0.01).
	Explore float64 `json:"explore,omitempty"`
}

func (s BayesSpec) withDefaults() BayesSpec {
	if s.Iterations <= 0 {
		s.Iterations = 50
	}
	if s.InitRounds <= 0 {
		s.InitRounds = 2
	}
	if s.Candidates <= 0 {
		s.Candidates = 256
	}
	if s.MaxObservations <= 0 {
		s.MaxObservations = 64
	}
	if s.LengthScale <= 0 {
		s.LengthScale = 0.25
	}
	if s.Noise <= 0 {
		s.Noise = 0.1
	}
	if s.Explore <= 0 {
		s.Explore = 0.01
	}
	return s
}

func init() {
	Register(EngineDef{
		Name: "bayes",
		Make: func(cfg EngineConfig, params json.RawMessage) (Engine, error) {
			var spec BayesSpec
			if err := decodeParams(params, &spec); err != nil {
				return nil, err
			}
			return newBayesEngine(cfg, spec), nil
		},
		Params: func() any { return new(BayesSpec) },
	})
}

type bayesEngine struct {
	spec        BayesSpec
	lo, hi      float64
	maxEvals    int
	targetValue float64
	rng         *rng.RNG
	rec         *obs.Recorder
	mEvals      *obs.Counter
	oo          optObs

	dim int
	x0  []float64

	// Training data: prior (knowledge-base) points first, then live
	// observations. Only live observations count toward evals/best.
	xs [][]float64
	ys []float64

	iter    int
	evals   int
	best    float64
	bestX   []float64
	history []IterRecord
	done    bool
	pending [][]float64
}

func newBayesEngine(cfg EngineConfig, spec BayesSpec) *bayesEngine {
	cfg = cfg.withDefaults()
	e := &bayesEngine{
		spec:        spec.withDefaults(),
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
	}
	clampTo(e.x0, e.lo, e.hi)
	for _, p := range cfg.priorInDim(e.dim) {
		e.xs = append(e.xs, p.X)
		e.ys = append(e.ys, p.Value)
	}
	return e
}

func (e *bayesEngine) Name() string { return "bayes" }

func (e *bayesEngine) batchSize(n int) int {
	if n <= 0 {
		n = 4
	}
	if e.maxEvals > 0 {
		if rem := e.maxEvals - e.evals; n > rem {
			n = rem
		}
	}
	return n
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

func (e *bayesEngine) randomPoint() []float64 {
	x := make([]float64, e.dim)
	for i := range x {
		x[i] = e.lo + e.rng.Float64()*(e.hi-e.lo)
	}
	return x
}

// jitterAround draws a Gaussian perturbation of x at a tenth of the box
// width, clamped.
func (e *bayesEngine) jitterAround(x []float64) []float64 {
	scale := (e.hi - e.lo) / 10
	c := make([]float64, e.dim)
	for i := range c {
		c[i] = x[i] + e.rng.NormFloat64()*scale
	}
	clampTo(c, e.lo, e.hi)
	return c
}

func (e *bayesEngine) Propose(_ context.Context, n int) ([][]float64, error) {
	if e.pending != nil {
		return nil, fmt.Errorf("opt: %s: Propose before Observe", e.Name())
	}
	if e.done || e.iter >= e.spec.Iterations {
		e.done = true
		return nil, nil
	}
	batch := e.batchSize(n)
	if batch <= 0 {
		e.done = true
		return nil, nil
	}
	var pts [][]float64
	switch {
	case e.evals == 0:
		// Round 1 always pays for the caller's starting point (the
		// skeleton sampler's best) before exploring.
		pts = append(pts, append([]float64(nil), e.x0...))
		for len(pts) < batch {
			pts = append(pts, e.randomPoint())
		}
	case e.iter < e.spec.InitRounds || len(e.xs) < e.dim+2:
		for len(pts) < batch {
			pts = append(pts, e.randomPoint())
		}
	default:
		pts = e.acquire(batch)
	}
	e.pending = pts
	e.evals += len(pts)
	e.mEvals.Add(uint64(len(pts)))
	return pts, nil
}

// acquire fits the GP on the (capped) training set and returns the
// batch of candidates with the highest expected improvement.
func (e *bayesEngine) acquire(batch int) [][]float64 {
	xs, ys := e.trainingSet()
	gp := fitGP(xs, ys, e, e.spec)

	nCand := e.spec.Candidates
	cands := make([][]float64, 0, nCand)
	// Half uniform exploration, half local refinement around the best.
	for i := 0; i < nCand/2; i++ {
		cands = append(cands, e.randomPoint())
	}
	anchor := e.bestX
	if anchor == nil {
		anchor = e.x0
	}
	for len(cands) < nCand {
		cands = append(cands, e.jitterAround(anchor))
	}

	type scored struct {
		idx int
		ei  float64
	}
	ranked := make([]scored, len(cands))
	for i, c := range cands {
		mu, sigma := gp.predict(e.norm(c))
		ranked[i] = scored{idx: i, ei: expectedImprovement(mu, sigma, gp.yBest, e.spec.Explore)}
	}
	sort.Slice(ranked, func(i, j int) bool {
		if ranked[i].ei != ranked[j].ei {
			return ranked[i].ei > ranked[j].ei
		}
		return ranked[i].idx < ranked[j].idx
	})
	pts := make([][]float64, 0, batch)
	for _, r := range ranked {
		if len(pts) == batch {
			break
		}
		pts = append(pts, cands[r.idx])
	}
	return pts
}

// trainingSet caps the GP inputs at MaxObservations, keeping the global
// best plus the most recent observations.
func (e *bayesEngine) trainingSet() ([][]float64, []float64) {
	cap := e.spec.MaxObservations
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

func (e *bayesEngine) Observe(values []float64) error {
	if e.pending == nil {
		return fmt.Errorf("opt: %s: Observe without Propose", e.Name())
	}
	if len(values) != len(e.pending) {
		return fmt.Errorf("opt: %s: %d values for %d points", e.Name(), len(values), len(e.pending))
	}
	roundBest := math.Inf(-1)
	for i, v := range values {
		x := e.pending[i]
		e.xs = append(e.xs, x)
		e.ys = append(e.ys, v)
		if v > roundBest {
			roundBest = v
		}
		if e.bestX == nil || v > e.best {
			e.best = v
			e.bestX = append([]float64(nil), x...)
		}
	}
	e.pending = nil
	e.iter++
	rec := IterRecord{Iter: e.iter, Best: roundBest, Evals: e.evals}
	e.history = append(e.history, rec)
	e.oo.iter(e.Name(), rec, e.best)
	if e.targetValue > 0 && e.best >= e.targetValue {
		e.done = true
	}
	return nil
}

func (e *bayesEngine) Result() Result {
	return Result{X: e.bestX, Value: e.best, Evals: e.evals, History: e.history}
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

func (e *bayesEngine) Checkpoint() (json.RawMessage, error) {
	if e.iter == 0 || e.pending != nil {
		return nil, nil
	}
	return json.Marshal(bayesState{
		Iter: e.iter, Evals: e.evals, XS: e.xs, YS: e.ys,
		Best: e.best, BestX: e.bestX, RNGState: e.rng.State(), History: e.history,
	})
}

func (e *bayesEngine) Restore(state json.RawMessage) error {
	var st bayesState
	if err := json.Unmarshal(state, &st); err != nil {
		return err
	}
	e.iter = st.Iter
	e.evals = st.Evals
	e.xs = st.XS
	e.ys = st.YS
	e.best = st.Best
	e.bestX = st.BestX
	e.rng = rng.New(st.RNGState)
	e.history = append(e.history[:0], st.History...)
	e.done = e.targetValue > 0 && e.bestX != nil && e.best >= e.targetValue
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
	ell   float64
	noise float64
}

func fitGP(xs [][]float64, ys []float64, e *bayesEngine, spec BayesSpec) *gpModel {
	n := len(xs)
	m := &gpModel{zs: make([][]float64, n), ell: spec.LengthScale, noise: spec.Noise}
	for i, x := range xs {
		m.zs[i] = e.norm(x)
	}
	for _, y := range ys {
		m.yMean += y
	}
	m.yMean /= float64(n)
	for _, y := range ys {
		d := y - m.yMean
		m.yStd += d * d
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
			v := rbf(m.zs[i], m.zs[j], m.ell)
			if i == j {
				v += m.noise
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
		kv[i] = rbf(z, zi, m.ell)
	}
	for i := 0; i < n; i++ {
		mu += kv[i] * m.alpha[i]
	}
	v := forwardSolve(m.chol, n, kv)
	varZ := 1 + m.noise
	for _, vi := range v {
		varZ -= vi * vi
	}
	if varZ < 1e-12 {
		varZ = 1e-12
	}
	return mu, math.Sqrt(varZ)
}

func rbf(a, b []float64, ell float64) float64 {
	d2 := 0.0
	for i := range a {
		d := a[i] - b[i]
		d2 += d * d
	}
	return math.Exp(-d2 / (2 * ell * ell))
}

// expectedImprovement is the EI acquisition for maximization on the
// standardized scale.
func expectedImprovement(mu, sigma, yBest, xi float64) float64 {
	d := mu - yBest - xi
	u := d / sigma
	return d*stdNormCDF(u) + sigma*stdNormPDF(u)
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
			d -= a[j*n+k] * a[j*n+k]
		}
		if d < 1e-12 {
			d = 1e-12
		}
		d = math.Sqrt(d)
		a[j*n+j] = d
		for i := j + 1; i < n; i++ {
			s := a[i*n+j]
			for k := 0; k < j; k++ {
				s -= a[i*n+k] * a[j*n+k]
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
			s -= l[i*n+k] * v[k]
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
			s -= l[k*n+i] * x[k]
		}
		x[i] = s / l[i*n+i]
	}
	return x
}
