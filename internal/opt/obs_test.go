package opt

import (
	"bytes"
	"encoding/json"
	"strings"
	"testing"

	"repro/internal/obs"
	"repro/internal/rng"
)

func TestImplicitFilteringObsCounters(t *testing.T) {
	var progress bytes.Buffer
	rec := &obs.Recorder{
		Metrics:  obs.NewRegistry(),
		Trace:    obs.NewTracer(),
		Progress: obs.NewProgress(&progress),
	}
	res, err := runIF(sphere, EngineConfig{X0: []float64{5, 5}, RNG: rng.New(3), Recorder: rec},
		IFSpec{Directions: 4, Iterations: 12})
	if err != nil {
		t.Fatal(err)
	}

	snap := rec.Metrics.Snapshot()
	if got := snap.Counters["opt.evals"]; got != uint64(res.Evals) {
		t.Fatalf("opt.evals = %d, want %d", got, res.Evals)
	}
	if got := snap.Counters["opt.iterations"]; got != uint64(len(res.History)) {
		t.Fatalf("opt.iterations = %d, want %d", got, len(res.History))
	}
	halvings := uint64(0)
	for _, h := range res.History {
		if !h.Moved {
			halvings++
		}
	}
	if got := snap.Counters["opt.step_halvings"]; got != halvings {
		t.Fatalf("opt.step_halvings = %d, want %d", got, halvings)
	}
	// The center is resampled once per completed iteration (default).
	if got := snap.Counters["opt.center_resamples"]; got != uint64(len(res.History)) {
		t.Fatalf("opt.center_resamples = %d, want %d", got, len(res.History))
	}

	// One opt span per iteration.
	spans := 0
	for _, ev := range rec.Trace.Events() {
		if ev.Cat == "opt" && ev.Name == "iteration" {
			spans++
		}
	}
	if spans != len(res.History) {
		t.Fatalf("iteration spans = %d, want %d", spans, len(res.History))
	}

	// One opt_iter JSONL event per iteration, best_so_far nondecreasing.
	lines := strings.Split(strings.TrimSpace(progress.String()), "\n")
	if len(lines) != len(res.History) {
		t.Fatalf("opt_iter lines = %d, want %d", len(lines), len(res.History))
	}
	prev := -1e18
	for i, line := range lines {
		var ev struct {
			Event     string  `json:"event"`
			Method    string  `json:"method"`
			Iter      int     `json:"iter"`
			BestSoFar float64 `json:"best_so_far"`
			Evals     int     `json:"evals"`
		}
		if err := json.Unmarshal([]byte(line), &ev); err != nil {
			t.Fatalf("line %d not JSON: %v", i, err)
		}
		if ev.Event != "opt_iter" || ev.Method != "implicit_filtering" {
			t.Fatalf("bad event: %+v", ev)
		}
		if ev.Iter != res.History[i].Iter || ev.Evals != res.History[i].Evals {
			t.Fatalf("event %d does not match history: %+v vs %+v", i, ev, res.History[i])
		}
		if ev.BestSoFar < prev {
			t.Fatalf("best_so_far decreased at iter %d: %g < %g", ev.Iter, ev.BestSoFar, prev)
		}
		prev = ev.BestSoFar
	}
}

// TestRecorderDoesNotChangeTrajectory checks instrumentation is purely
// observational: identical results with and without a recorder.
func TestRecorderDoesNotChangeTrajectory(t *testing.T) {
	run := func(rec *obs.Recorder) Result {
		res, err := runIF(sphere, EngineConfig{X0: []float64{10, 90}, RNG: rng.New(11), Recorder: rec},
			IFSpec{Directions: 6, Iterations: 15})
		if err != nil {
			t.Fatal(err)
		}
		return res
	}
	plain := run(nil)
	instrumented := run(obs.NewRecorder())
	if plain.Value != instrumented.Value || plain.Evals != instrumented.Evals {
		t.Fatalf("recorder changed the run: %+v vs %+v", plain, instrumented)
	}
	for i := range plain.X {
		if plain.X[i] != instrumented.X[i] {
			t.Fatalf("recorder changed the returned point")
		}
	}
	if len(plain.History) != len(instrumented.History) {
		t.Fatalf("recorder changed the history length")
	}
	for i := range plain.History {
		if plain.History[i] != instrumented.History[i] {
			t.Fatalf("recorder changed history[%d]", i)
		}
	}
}
