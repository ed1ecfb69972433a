// The pluggable optimizer boundary. The paper frames CDG as black-box
// noisy maximization, and different engines trade off sample efficiency
// against robustness to noise: implicit filtering (the paper's stencil
// method and the default), a Bayesian-optimization engine (Gaussian
// process surrogate + expected improvement, after NOVA), and a
// supervised test-selection ranker warm-started from the cross-campaign
// knowledge base (after Masamba & Eder). All of them speak Engine:
// Propose a batch of points, Observe their objective values, repeat.
//
// The contract every engine honors:
//
//   - Determinism: the proposal sequence is a pure function of
//     EngineConfig (including the RNG seed/state) and the observed
//     values. No wall clock, no global randomness.
//   - Batching: the points of one Propose call are independent; a
//     caller may evaluate them concurrently as long as the i-th value
//     corresponds to the i-th point as if evaluated sequentially in
//     order (sim.Env's per-job seeding gives exactly this).
//   - Checkpoint/resume: Checkpoint returns a serializable snapshot at
//     stable boundaries (nil between them); Restore re-enters the run
//     so the continued trajectory is bit-identical to the uninterrupted
//     one, re-evaluating nothing the snapshot already paid for.
//   - Budget: the points of all batches together never exceed
//     EngineConfig.MaxEvals.
package opt

import (
	"bytes"
	"context"
	"encoding/json"
	"fmt"
	"sort"
	"strings"

	"repro/internal/obs"
	"repro/internal/rng"
)

// Engine is one derivative-free maximization strategy over the box
// [Lo, Hi]^d. Engines are single-use state machines: construct (or
// Restore), then alternate Propose/Observe until Propose returns an
// empty batch.
type Engine interface {
	// Name returns the engine's name (a key of the engines table).
	Name() string
	// Propose returns the next batch of points to evaluate. n is a
	// batch-size hint (<= 0 means engine default); stencil engines whose
	// batch structure is fixed by the algorithm ignore it. An empty
	// batch means the run is complete (converged or out of budget).
	Propose(ctx context.Context, n int) ([][]float64, error)
	// Observe records the objective values for the immediately
	// preceding Propose call's points, in order.
	Observe(values []float64) error
	// Result snapshots the best-so-far outcome. Valid at any point;
	// after Propose returns empty it is the run's final result.
	Result() Result
	// Checkpoint serializes the engine's resumable state, or returns
	// (nil, nil) when the engine is between stable boundaries (e.g.
	// mid-iteration for multi-step stencil engines).
	Checkpoint() (json.RawMessage, error)
	// Restore re-enters a run from a Checkpoint payload. The engine
	// must already be constructed with the same EngineConfig and params
	// as the run that produced the payload.
	Restore(state json.RawMessage) error
}

// EngineConfig is the solver-agnostic part of an engine's setup: the
// search box, the starting point, the budget, and the seeded RNG.
// Solver-specific knobs (stencil directions, GP length scales, ...)
// live in each engine's params type — see IFSpec, BayesSpec,
// RankerSpec.
type EngineConfig struct {
	// X0 is the starting point; its length sets the dimension.
	X0 []float64
	// Lo and Hi bound the box in every coordinate (defaults 0 and 100,
	// the skeleton weight box).
	Lo, Hi float64
	// MaxEvals bounds objective calls (0 = unlimited). No engine ever
	// exceeds it: a batch is sized to the calls left, and the run ends
	// when none are.
	MaxEvals int
	// RNG drives all engine randomness. nil seeds a fresh generator
	// with 0.
	RNG *rng.RNG
	// Recorder streams opt_iter progress events and counts evals /
	// iterations. Purely observational.
	Recorder *obs.Recorder
	// Prior carries past observations of the same objective family —
	// the cross-campaign knowledge base's harvested (weights, score)
	// pairs. Engines that learn from history (ranker, bayes) fold
	// matching-dimension points into their model before the first
	// proposal; stencil engines ignore it.
	Prior []PriorPoint
}

// PriorPoint is one past observation offered to an engine as warm-start
// evidence. It does not count toward the run's eval budget.
type PriorPoint struct {
	X     []float64 `json:"x"`
	Value float64   `json:"value"`
}

// withDefaults resolves the config's zero values.
func (c EngineConfig) withDefaults() EngineConfig {
	if c.Hi == 0 && c.Lo == 0 {
		c.Hi = 100
	}
	if c.RNG == nil {
		c.RNG = rng.New(0)
	}
	return c
}

// DefaultEngine is the paper's algorithm and the name the empty string
// resolves to.
const DefaultEngine = "implicit_filtering"

// engineParams is an engine's params type: decoded from the knob blob,
// it builds the engine.
type engineParams interface {
	build(cfg EngineConfig) Engine
}

// engines maps each engine name to a fresh value of its params type.
// Validate decodes user params into one strictly, New leniently.
var engines = map[string]func() engineParams{
	DefaultEngine: func() engineParams { return new(IFSpec) },
	"bayes":       func() engineParams { return new(BayesSpec) },
	"ranker":      func() engineParams { return new(RankerSpec) },
}

// EngineNames returns the engine names, sorted.
func EngineNames() []string {
	names := make([]string, 0, len(engines))
	for n := range engines {
		names = append(names, n)
	}
	sort.Strings(names)
	return names
}

// New builds an engine by name ("" selects DefaultEngine). params is the
// engine's knob blob; unknown keys are ignored (the flow merges generic
// knobs every engine picks what it understands from; use Validate for
// strict admission-time checking).
func New(name string, cfg EngineConfig, params json.RawMessage) (Engine, error) {
	if name == "" {
		name = DefaultEngine
	}
	mk, ok := engines[name]
	if !ok {
		return nil, fmt.Errorf("opt: unknown engine %q (registered: %s)", name, strings.Join(EngineNames(), ", "))
	}
	if len(cfg.X0) == 0 {
		return nil, fmt.Errorf("opt: empty starting point")
	}
	p := mk()
	if len(bytes.TrimSpace(params)) > 0 {
		if err := json.Unmarshal(params, p); err != nil {
			return nil, err
		}
	}
	return p.build(cfg), nil
}

// Validate checks an engine selection at admission time: the name must
// be known ("" is the default) and params, when present, must be a JSON
// object containing only keys the engine's params type declares. The
// error for an unknown engine lists every engine name, so HTTP handlers
// can surface it verbatim.
func Validate(name string, params json.RawMessage) error {
	if name == "" {
		name = DefaultEngine
	}
	mk, ok := engines[name]
	if !ok {
		return fmt.Errorf("unknown engine %q (registered: %s)", name, strings.Join(EngineNames(), ", "))
	}
	if len(bytes.TrimSpace(params)) == 0 {
		return nil
	}
	dec := json.NewDecoder(bytes.NewReader(params))
	dec.DisallowUnknownFields()
	if err := dec.Decode(mk()); err != nil {
		return fmt.Errorf("engine %q params: %v", name, err)
	}
	return nil
}

// MergeParams overlays user params on top of base flow knobs: keys in
// over win. Both blobs must be JSON objects (or empty). The result is
// canonical (sorted keys), so it is stable input for config hashing.
func MergeParams(base map[string]any, over json.RawMessage) (json.RawMessage, error) {
	merged := make(map[string]any, len(base))
	for k, v := range base {
		merged[k] = v
	}
	if len(bytes.TrimSpace(over)) > 0 {
		var m map[string]any
		if err := json.Unmarshal(over, &m); err != nil {
			return nil, fmt.Errorf("opt: engine params: %w", err)
		}
		for k, v := range m {
			merged[k] = v
		}
	}
	if len(merged) == 0 {
		return nil, nil
	}
	return json.Marshal(merged)
}

// DriveOptions configure one Drive loop around an engine.
type DriveOptions struct {
	// Objective evaluates points one at a time. May be nil when Batch
	// is set.
	Objective Objective
	// Batch evaluates one Propose batch concurrently (e.g. as parallel
	// simulation jobs). Takes precedence over Objective.
	Batch BatchObjective
	// BatchSize is the hint passed to Propose (<= 0: engine default).
	BatchSize int
	// Context cancels the run between evaluations: Drive returns the
	// engine's best-so-far Result with the context's error.
	Context context.Context
	// Checkpoint, when non-nil, receives the engine's serialized state
	// after every observation that lands on a stable boundary. An error
	// aborts the run with that error — the flow's journaling hook.
	Checkpoint func(json.RawMessage) error
	// Resume, when non-nil, restores the engine from a previous
	// Checkpoint payload before the first proposal.
	Resume json.RawMessage
}

// Drive runs an engine to completion: Propose, evaluate, Observe,
// checkpoint, repeat. It is the one evaluation loop every caller —
// flow, CLI baselines, conformance tests — shares, so engines never
// see objectives directly.
func Drive(e Engine, o DriveOptions) (Result, error) {
	batch := o.Batch
	if batch == nil {
		if o.Objective == nil {
			return Result{}, fmt.Errorf("opt: nil objective")
		}
		f := o.Objective
		batch = func(points [][]float64) []float64 {
			out := make([]float64, len(points))
			for i, p := range points {
				out[i] = f(p)
			}
			return out
		}
	}
	if o.Resume != nil {
		if err := e.Restore(o.Resume); err != nil {
			return Result{}, fmt.Errorf("opt: restore %s: %w", e.Name(), err)
		}
	}
	for {
		if err := ctxErr(o.Context); err != nil {
			return e.Result(), err
		}
		points, err := e.Propose(o.Context, o.BatchSize)
		if err != nil {
			return e.Result(), err
		}
		if len(points) == 0 {
			return e.Result(), nil
		}
		values := batch(points)
		if err := e.Observe(values); err != nil {
			return e.Result(), err
		}
		if o.Checkpoint != nil {
			state, err := e.Checkpoint()
			if err != nil {
				return e.Result(), err
			}
			if state != nil {
				if err := o.Checkpoint(state); err != nil {
					return e.Result(), err
				}
			}
		}
	}
}
