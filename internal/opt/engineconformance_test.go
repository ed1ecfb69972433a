package opt

import (
	"context"
	"encoding/json"
	"errors"
	"fmt"
	"reflect"
	"strings"
	"testing"

	"repro/internal/rng"
)

// The engine-conformance suite: every registered engine must honor the
// Engine contract — fixed-seed determinism, checkpoint/resume that
// re-evaluates nothing, context cancellation between evaluations, and
// batch==sequential equivalence. New engines get these properties
// checked for free by registering.

// conformanceCases pins per-engine params small enough for fast runs
// but large enough to exercise several checkpoint boundaries.
var conformanceCases = []struct {
	name   string
	params string
}{
	{"implicit_filtering", `{"iterations": 8, "directions": 4}`},
	{"bayes", `{"iterations": 6, "candidates": 48, "init_rounds": 1, "max_observations": 24}`},
	{"ranker", `{"iterations": 6, "candidates": 32}`},
}

// confObjective is a deterministic multimodal function of the point
// alone, so values are independent of evaluation order — the property
// sim.Env's per-job seeding provides in the real flow.
func confObjective(x []float64) float64 {
	s := 0.0
	for i, v := range x {
		d := v - 60 + 5*float64(i)
		s -= d * d
	}
	return s / 100
}

func confEngine(t *testing.T, name, params string, seed uint64) Engine {
	t.Helper()
	e, err := New(name, EngineConfig{
		X0:  []float64{10, 80, 40},
		RNG: rng.New(seed),
	}, json.RawMessage(params))
	if err != nil {
		t.Fatalf("New(%s): %v", name, err)
	}
	return e
}

func TestEngineConformanceDeterminism(t *testing.T) {
	for _, tc := range conformanceCases {
		t.Run(tc.name, func(t *testing.T) {
			run := func() Result {
				res, err := Drive(confEngine(t, tc.name, tc.params, 17), DriveOptions{Objective: confObjective})
				if err != nil {
					t.Fatal(err)
				}
				return res
			}
			a, b := run(), run()
			if !reflect.DeepEqual(a, b) {
				t.Fatalf("two fixed-seed runs diverged:\n%+v\n%+v", a, b)
			}
			if a.Evals == 0 || len(a.History) == 0 {
				t.Fatalf("run did no work: %+v", a)
			}
		})
	}
}

func TestEngineConformanceCheckpointResume(t *testing.T) {
	for _, tc := range conformanceCases {
		t.Run(tc.name, func(t *testing.T) {
			var states []json.RawMessage
			want, err := Drive(confEngine(t, tc.name, tc.params, 23), DriveOptions{
				Objective: confObjective,
				Checkpoint: func(raw json.RawMessage) error {
					states = append(states, append(json.RawMessage(nil), raw...))
					return nil
				},
			})
			if err != nil {
				t.Fatal(err)
			}
			if len(states) == 0 {
				t.Fatal("run emitted no checkpoints")
			}
			for k, st := range states {
				// The evals the checkpoint already paid for, read back
				// from a restored engine.
				probe := confEngine(t, tc.name, tc.params, 23)
				if err := probe.Restore(st); err != nil {
					t.Fatalf("restore checkpoint %d: %v", k, err)
				}
				paid := probe.Result().Evals

				evals := 0
				counting := func(x []float64) float64 { evals++; return confObjective(x) }
				got, err := Drive(confEngine(t, tc.name, tc.params, 23), DriveOptions{
					Objective: counting,
					Resume:    st,
				})
				if err != nil {
					t.Fatalf("resume from checkpoint %d: %v", k, err)
				}
				if !reflect.DeepEqual(got, want) {
					t.Fatalf("resume from checkpoint %d diverged:\n got %+v\nwant %+v", k, got, want)
				}
				if evals != want.Evals-paid {
					t.Fatalf("resume from checkpoint %d re-evaluated: %d evals, want %d",
						k, evals, want.Evals-paid)
				}
			}
		})
	}
}

func TestEngineConformanceCancellation(t *testing.T) {
	for _, tc := range conformanceCases {
		t.Run(tc.name, func(t *testing.T) {
			// Canceled before the first evaluation: zero work.
			ctx, cancel := context.WithCancel(context.Background())
			cancel()
			evals := 0
			_, err := Drive(confEngine(t, tc.name, tc.params, 5), DriveOptions{
				Objective: func(x []float64) float64 { evals++; return 0 },
				Context:   ctx,
			})
			if !errors.Is(err, context.Canceled) {
				t.Fatalf("err = %v, want context.Canceled", err)
			}
			if evals != 0 {
				t.Fatalf("canceled run evaluated %d points", evals)
			}

			// Canceled mid-run (at the second checkpoint): the engine
			// returns its best-so-far partial result with the error.
			ctx2, cancel2 := context.WithCancel(context.Background())
			boundaries := 0
			res, err := Drive(confEngine(t, tc.name, tc.params, 5), DriveOptions{
				Objective: confObjective,
				Context:   ctx2,
				Checkpoint: func(json.RawMessage) error {
					if boundaries++; boundaries == 2 {
						cancel2()
					}
					return nil
				},
			})
			if !errors.Is(err, context.Canceled) {
				t.Fatalf("mid-run err = %v, want context.Canceled", err)
			}
			if res.Evals == 0 {
				t.Fatal("mid-run cancel returned an empty result")
			}
		})
	}
}

func TestEngineConformanceBatchSequentialEquivalence(t *testing.T) {
	for _, tc := range conformanceCases {
		t.Run(tc.name, func(t *testing.T) {
			seq, err := Drive(confEngine(t, tc.name, tc.params, 31), DriveOptions{Objective: confObjective})
			if err != nil {
				t.Fatal(err)
			}
			bat, err := Drive(confEngine(t, tc.name, tc.params, 31), DriveOptions{
				Batch: func(points [][]float64) []float64 {
					out := make([]float64, len(points))
					for i, p := range points {
						out[i] = confObjective(p)
					}
					return out
				},
			})
			if err != nil {
				t.Fatal(err)
			}
			if !reflect.DeepEqual(seq, bat) {
				t.Fatalf("batch and sequential runs diverged:\n seq %+v\n bat %+v", seq, bat)
			}
		})
	}
}

// TestEngineConformanceBudget: no engine spends more objective calls
// than EngineConfig.MaxEvals, and Result reports exactly the calls it
// made — a noisy objective, and budgets that end both inside a batch and
// on a batch boundary (an implicit-filtering iteration is 11 points after
// the start's 1, a bayes or ranker batch 4).
func TestEngineConformanceBudget(t *testing.T) {
	x0 := make([]float64, 12)
	for i := range x0 {
		x0[i] = float64(5 + 7*i)
	}
	for _, name := range EngineNames() {
		t.Run(name, func(t *testing.T) {
			for _, budget := range []int{1, 7, 12, 13, 37} {
				for seed := uint64(1); seed <= 3; seed++ {
					e, err := New(name, EngineConfig{X0: x0, MaxEvals: budget, RNG: rng.New(seed)},
						json.RawMessage(`{"iterations": 1000}`))
					if err != nil {
						t.Fatal(err)
					}
					evals := 0
					f := noisy(sphere, 300, seed)
					res, err := Drive(e, DriveOptions{Objective: func(x []float64) float64 { evals++; return f(x) }})
					if err != nil {
						t.Fatal(err)
					}
					if evals > budget {
						t.Errorf("budget %d, seed %d: %d evaluations", budget, seed, evals)
					}
					if res.Evals != evals {
						t.Errorf("budget %d, seed %d: Result().Evals = %d, made %d", budget, seed, res.Evals, evals)
					}
				}
			}
		})
	}
}

// TestEngineConformanceEmptyStart: a starting point is the dimension,
// so no engine is built without one.
func TestEngineConformanceEmptyStart(t *testing.T) {
	for _, name := range EngineNames() {
		t.Run(name, func(t *testing.T) {
			if _, err := New(name, EngineConfig{}, nil); err == nil || !strings.Contains(err.Error(), "empty starting point") {
				t.Fatalf("New(%s) with no X0: err = %v, want the empty-start error", name, err)
			}
		})
	}
}

// TestEngineConformanceRespectsBox: under an objective that rewards
// leaving the box, every proposed point and the result stay in
// [Lo, Hi], and the run still climbs toward the box's corner.
func TestEngineConformanceRespectsBox(t *testing.T) {
	const lo, hi = 10, 60
	inBox := func(x []float64) bool {
		for _, v := range x {
			if v < lo || v > hi {
				return false
			}
		}
		return true
	}
	for _, name := range EngineNames() {
		t.Run(name, func(t *testing.T) {
			e, err := New(name, EngineConfig{X0: []float64{35, 35}, Lo: lo, Hi: hi, RNG: rng.New(3)},
				json.RawMessage(`{"iterations": 20}`))
			if err != nil {
				t.Fatal(err)
			}
			res, err := Drive(e, DriveOptions{Objective: func(x []float64) float64 {
				if !inBox(x) {
					t.Fatalf("proposed %v outside [%v, %v]", x, lo, hi)
				}
				return x[0] + x[1]
			}})
			if err != nil {
				t.Fatal(err)
			}
			if !inBox(res.X) {
				t.Fatalf("Result().X = %v outside [%v, %v]", res.X, lo, hi)
			}
			if res.Value < 0.9*2*hi {
				t.Fatalf("Result().Value = %v: never neared the corner (%v)", res.Value, 2*hi)
			}
		})
	}
}

// TestEngineConformanceProtocolMisuse: calling Propose twice, Observe
// without a Propose, or Observe with the wrong number of values is an
// error that leaves the engine as it was — the run then finishes exactly
// as an undisturbed one.
func TestEngineConformanceProtocolMisuse(t *testing.T) {
	ctx := context.Background()
	observe := func(t *testing.T, e Engine, pts [][]float64) {
		t.Helper()
		vals := make([]float64, len(pts))
		for i, p := range pts {
			vals[i] = confObjective(p)
		}
		if err := e.Observe(vals); err != nil {
			t.Fatalf("Observe after a misuse: %v", err)
		}
	}
	propose := func(t *testing.T, e Engine) [][]float64 {
		t.Helper()
		pts, err := e.Propose(ctx, 0)
		if err != nil || len(pts) == 0 {
			t.Fatalf("first Propose = %d points, %v", len(pts), err)
		}
		return pts
	}
	misuses := []struct {
		name   string
		misuse func(t *testing.T, e Engine) (want string, err error)
	}{
		{"observe without propose", func(t *testing.T, e Engine) (string, error) {
			return "Observe without Propose", e.Observe([]float64{0})
		}},
		{"propose twice", func(t *testing.T, e Engine) (string, error) {
			pts := propose(t, e)
			_, err := e.Propose(ctx, 0)
			observe(t, e, pts)
			return "Propose before Observe", err
		}},
		{"wrong value count", func(t *testing.T, e Engine) (string, error) {
			pts := propose(t, e)
			err := e.Observe(make([]float64, len(pts)+1))
			observe(t, e, pts)
			return fmt.Sprintf("%d values for %d points", len(pts)+1, len(pts)), err
		}},
	}
	for _, tc := range conformanceCases {
		t.Run(tc.name, func(t *testing.T) {
			want, err := Drive(confEngine(t, tc.name, tc.params, 41), DriveOptions{Objective: confObjective})
			if err != nil {
				t.Fatal(err)
			}
			for _, m := range misuses {
				e := confEngine(t, tc.name, tc.params, 41)
				msg, err := m.misuse(t, e)
				if err == nil || !strings.Contains(err.Error(), msg) {
					t.Fatalf("%s: err = %v, want one containing %q", m.name, err, msg)
				}
				got, err := Drive(e, DriveOptions{Objective: confObjective})
				if err != nil {
					t.Fatalf("%s: the run after it: %v", m.name, err)
				}
				if !reflect.DeepEqual(got, want) {
					t.Fatalf("%s: the run after it diverged:\n got %+v\nwant %+v", m.name, got, want)
				}
			}
		})
	}
}

// TestEnginePriorWarmStart: engines that learn from the knowledge base
// must exploit a prior observation of the optimum region in round one —
// the warm ranker proposes the prior best point outright.
func TestEnginePriorWarmStart(t *testing.T) {
	priorBest := []float64{60, 55, 50}
	e, err := New("ranker", EngineConfig{
		X0:  []float64{10, 80, 40},
		RNG: rng.New(3),
		Prior: []PriorPoint{
			{X: []float64{5, 5, 5}, Value: -30},
			{X: priorBest, Value: -0.3},
		},
	}, json.RawMessage(`{"iterations": 2}`))
	if err != nil {
		t.Fatal(err)
	}
	pts, err := e.Propose(context.Background(), 4)
	if err != nil {
		t.Fatal(err)
	}
	found := false
	for _, p := range pts {
		if reflect.DeepEqual(p, priorBest) {
			found = true
		}
	}
	if !found {
		t.Fatalf("warm ranker's first batch does not exploit the prior best: %v", pts)
	}
}

func TestEngineRegistryValidate(t *testing.T) {
	if err := Validate("", nil); err != nil {
		t.Fatalf("default engine invalid: %v", err)
	}
	if err := Validate("bayes", json.RawMessage(`{"iterations": 3}`)); err != nil {
		t.Fatalf("valid bayes params rejected: %v", err)
	}
	err := Validate("no_such_engine", nil)
	if err == nil {
		t.Fatal("unknown engine accepted")
	}
	for _, name := range EngineNames() {
		if !strings.Contains(err.Error(), name) {
			t.Fatalf("unknown-engine error %q does not list %q", err, name)
		}
	}
	if err := Validate("implicit_filtering", json.RawMessage(`{"dirctions": 4}`)); err == nil {
		t.Fatal("typoed param key accepted")
	}
	if err := Validate("ranker", json.RawMessage(`{"directions": 4}`)); err == nil {
		t.Fatal("stencil-only param accepted by ranker")
	}
	// A deleted engine's name is refused like any unknown one.
	want := `unknown engine "nelder_mead" (registered: bayes, implicit_filtering, ranker)`
	if err := Validate("nelder_mead", nil); err == nil || err.Error() != want {
		t.Fatalf("Validate(nelder_mead) = %v, want %q", err, want)
	}
	// The GP's kernel and noise and the ranker's regularizer are
	// constants, not knobs.
	for _, c := range []struct{ name, params string }{
		{"bayes", `{"noise": 0.2}`},
		{"bayes", `{"length_scale": 0.5}`},
		{"ranker", `{"ridge": 2}`},
		{"ranker", `{"explore": 0.5}`},
	} {
		if err := Validate(c.name, json.RawMessage(c.params)); err == nil || !strings.Contains(err.Error(), "unknown field") {
			t.Fatalf("Validate(%s, %s) = %v, want an unknown-field error", c.name, c.params, err)
		}
	}
}

// TestEngineNamesStable pins the registry contents: the three engines of
// the A/B study, no strays.
func TestEngineNamesStable(t *testing.T) {
	want := []string{"bayes", "implicit_filtering", "ranker"}
	if got := EngineNames(); !reflect.DeepEqual(got, want) {
		t.Fatalf("EngineNames() = %v, want %v", got, want)
	}
}
