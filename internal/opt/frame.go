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

// policy is what an engine writes: its search step. The frame it embeds
// does everything else.
type policy interface {
	// next returns the engine's next batch, or none when its own stop
	// criteria say the run is over.
	next(n int) [][]float64
	// learn folds the observed values of next's batch into the engine's
	// model and, at the end of an iteration, calls endIteration.
	learn(pts [][]float64, values []float64)
	// state returns the engine's checkpoint payload, or nil when the
	// engine is between stable boundaries.
	state() any
}

// frame is the part of an Engine every engine shares: the config copy,
// the Propose/Observe protocol, the eval count, the best point so far,
// the iteration history with its opt_iter events, and Result. An engine
// embeds it and supplies a policy; the frame implements Name, Propose,
// Observe, Result and Checkpoint, the engine only Restore.
type frame struct {
	name   string
	pol    policy
	lo, hi float64
	dim    int
	x0     []float64 // clamped to the box
	rng    *rng.RNG
	oo     optObs

	evals   int
	iter    int // completed iterations
	best    float64
	bestX   []float64 // nil until the first observation
	history []IterRecord
	pending [][]float64 // the outstanding Propose's points, nil between rounds
	done    bool
}

func newFrame(name string, cfg EngineConfig, pol policy) frame {
	cfg = cfg.withDefaults()
	f := frame{
		name: name,
		pol:  pol,
		lo:   cfg.Lo,
		hi:   cfg.Hi,
		dim:  len(cfg.X0),
		x0:   append([]float64(nil), cfg.X0...),
		rng:  cfg.RNG,
		oo:   newOptObs(cfg.Recorder),
	}
	clampTo(f.x0, f.lo, f.hi)
	return f
}

func (f *frame) Name() string { return f.name }

func (f *frame) Propose(_ context.Context, n int) ([][]float64, error) {
	if f.pending != nil {
		return nil, fmt.Errorf("opt: %s: Propose before Observe", f.name)
	}
	if f.done {
		return nil, nil
	}
	pts := f.pol.next(n)
	if len(pts) == 0 {
		f.done = true
		return nil, nil
	}
	f.pending = pts
	f.evals += len(pts)
	f.oo.evals.Add(uint64(len(pts)))
	return pts, nil
}

func (f *frame) Observe(values []float64) error {
	if f.pending == nil {
		return fmt.Errorf("opt: %s: Observe without Propose", f.name)
	}
	if len(values) != len(f.pending) {
		return fmt.Errorf("opt: %s: %d values for %d points", f.name, len(values), len(f.pending))
	}
	pts := f.pending
	f.pending = nil
	for i, v := range values {
		if f.bestX == nil || v > f.best {
			f.best, f.bestX = v, append([]float64(nil), pts[i]...)
		}
	}
	f.pol.learn(pts, values)
	return nil
}

// endIteration closes an iteration: rec, numbered and stamped with the
// evals so far, joins the history and goes out as an opt_iter event.
func (f *frame) endIteration(rec IterRecord) {
	f.iter++
	rec.Iter, rec.Evals = f.iter, f.evals
	f.history = append(f.history, rec)
	f.oo.iter(f.name, rec, f.best)
}

func (f *frame) Result() Result {
	return Result{X: f.bestX, Value: f.best, Evals: f.evals, History: f.history}
}

// Checkpoint takes the engine's payload at completed iterations with
// nothing outstanding — never before the first one.
func (f *frame) Checkpoint() (json.RawMessage, error) {
	if f.iter == 0 || f.pending != nil {
		return nil, nil
	}
	st := f.pol.state()
	if st == nil {
		return nil, nil
	}
	return json.Marshal(st)
}

// prior filters a knowledge-base prior down to points of the engine's
// dimension, clamped into the box, preserving order.
func (f *frame) prior(points []PriorPoint) []PriorPoint {
	var out []PriorPoint
	for _, p := range points {
		if len(p.X) != f.dim {
			continue
		}
		x := append([]float64(nil), p.X...)
		clampTo(x, f.lo, f.hi)
		out = append(out, PriorPoint{X: x, Value: p.Value})
	}
	return out
}

// iterationsOrDefault is an engine's iteration budget: n, default 50.
func iterationsOrDefault(n int) int {
	if n <= 0 {
		return 50
	}
	return n
}

// The helpers below serve the model-based engines (bayes, ranker), which
// propose batches of n points (default 4) and rank random candidates.

// batchSize sizes a proposal: the hint n, default 4.
func batchSize(n int) int {
	if n <= 0 {
		return 4
	}
	return n
}

// fill appends uniform random points to pts until it holds n.
func (f *frame) fill(pts [][]float64, n int) [][]float64 {
	for len(pts) < n {
		pts = append(pts, f.randomPoint())
	}
	return pts
}

func (f *frame) randomPoint() []float64 {
	x := make([]float64, f.dim)
	for i := range x {
		x[i] = f.lo + float64(f.rng.Float64()*(f.hi-f.lo))
	}
	return x
}

// jitterAround draws a Gaussian perturbation of x at a tenth of the box
// width, clamped.
func (f *frame) jitterAround(x []float64) []float64 {
	scale := (f.hi - f.lo) / 10
	c := make([]float64, f.dim)
	for i := range c {
		c[i] = x[i] + float64(f.rng.NormFloat64()*scale)
	}
	clampTo(c, f.lo, f.hi)
	return c
}

// topN returns the n candidates with the highest scores; ties go to the
// lower candidate index, so the selection is deterministic.
func topN(cands [][]float64, score func([]float64) float64, n int) [][]float64 {
	scores := make([]float64, len(cands))
	idx := make([]int, len(cands))
	for i, c := range cands {
		scores[i], idx[i] = score(c), i
	}
	sort.Slice(idx, func(a, b int) bool {
		if scores[idx[a]] != scores[idx[b]] {
			return scores[idx[a]] > scores[idx[b]]
		}
		return idx[a] < idx[b]
	})
	pts := make([][]float64, 0, n)
	for _, i := range idx[:min(n, len(idx))] {
		pts = append(pts, cands[i])
	}
	return pts
}

// maxOf returns the largest of values (-Inf for none).
func maxOf(values []float64) float64 {
	m := math.Inf(-1)
	for _, v := range values {
		if v > m {
			m = v
		}
	}
	return m
}

// optObs bundles the engines' instrumentation: the eval counter,
// counters for the convergence-relevant events, and the per-iteration
// opt_iter progress record. Every handle and method is nil-safe, so the
// engines call them unconditionally.
type optObs struct {
	rec       *obs.Recorder
	evals     *obs.Counter
	iters     *obs.Counter
	halvings  *obs.Counter
	resamples *obs.Counter
}

func newOptObs(rec *obs.Recorder) optObs {
	return optObs{
		rec:       rec,
		evals:     rec.Counter("opt.evals"),
		iters:     rec.Counter("opt.iterations"),
		halvings:  rec.Counter("opt.step_halvings"),
		resamples: rec.Counter("opt.center_resamples"),
	}
}

// iter records one completed iteration: the live Fig. 6 sample.
func (o optObs) iter(method string, h IterRecord, bestSoFar float64) {
	o.iters.Inc()
	o.rec.Emit("opt_iter", map[string]any{
		"method":      method,
		"iter":        h.Iter,
		"best":        h.Best,
		"best_so_far": bestSoFar,
		"step":        h.Step,
		"moved":       h.Moved,
		"evals":       h.Evals,
	})
}
