package opt

import (
	"bytes"
	"context"
	"encoding/json"
	"errors"
	"reflect"
	"testing"

	"repro/internal/rng"
)

// resumeEngine is a small deterministic run with both stop criteria in
// play (iterations and min step both reachable).
func resumeEngine(x0 []float64) Engine {
	return newIFEngine(EngineConfig{X0: x0, RNG: rng.New(9)},
		ifSpec{Directions: 6, Iterations: 18})
}

// collect returns a checkpoint hook that keeps a copy of every state.
func collect(states *[]json.RawMessage) func(json.RawMessage) error {
	return func(raw json.RawMessage) error {
		*states = append(*states, append(json.RawMessage(nil), raw...))
		return nil
	}
}

// TestResumeFromEveryCheckpointIsBitIdentical runs a full optimization
// collecting a checkpoint per iteration, then restarts from every one of
// them: each resumed run must return a Result bit-identical to the
// uninterrupted run, and must not re-evaluate points the original
// already paid for.
func TestResumeFromEveryCheckpointIsBitIdentical(t *testing.T) {
	x0 := []float64{10, 20, 30}
	var states []json.RawMessage
	want, err := Drive(resumeEngine(x0), DriveOptions{Batch: asBatch(sphere), Checkpoint: collect(&states)})
	if err != nil {
		t.Fatal(err)
	}
	if len(states) != len(want.History) {
		t.Fatalf("%d checkpoints for %d iterations", len(states), len(want.History))
	}

	for k, raw := range states {
		// iterState is the schema journals hold: decoding a checkpoint
		// into it and encoding it back, as a journal replay does, must
		// preserve every field and — Go's float encoding being
		// shortest-representation — every bit.
		var st iterState
		if err := json.Unmarshal(raw, &st); err != nil {
			t.Fatal(err)
		}
		back, err := json.Marshal(st)
		if err != nil {
			t.Fatal(err)
		}
		if !bytes.Equal(back, raw) {
			t.Fatalf("checkpoint %d does not survive a JSON round-trip", k)
		}

		evals := 0
		counting := func(x []float64) float64 { evals++; return sphere(x) }
		got, err := Drive(resumeEngine(x0), DriveOptions{Batch: asBatch(counting), Resume: back})
		if err != nil {
			t.Fatalf("resume from checkpoint %d: %v", k, err)
		}
		if !reflect.DeepEqual(got, want) {
			t.Fatalf("resume from checkpoint %d diverged:\n got %+v\nwant %+v", k, got, want)
		}
		if evals != want.Evals-st.Evals {
			t.Fatalf("resume from checkpoint %d re-evaluated: %d evals, want %d",
				k, evals, want.Evals-st.Evals)
		}
	}
}

// TestImplicitFilteringCancel: a canceled context stops the run between
// evaluations with ctx.Err() and the best-so-far partial result.
func TestImplicitFilteringCancel(t *testing.T) {
	ctx, cancel := context.WithCancel(context.Background())
	iters := 0
	res, err := Drive(resumeEngine([]float64{10, 10}), DriveOptions{
		Batch:   asBatch(sphere),
		Context: ctx,
		Checkpoint: func(json.RawMessage) error {
			if iters++; iters == 3 {
				cancel()
			}
			return nil
		},
	})
	if !errors.Is(err, context.Canceled) {
		t.Fatalf("err = %v, want context.Canceled", err)
	}
	if len(res.History) != 3 {
		t.Fatalf("history has %d iterations after cancel at 3", len(res.History))
	}

	// Canceled before the first evaluation: zero work.
	evals := 0
	_, err = Drive(resumeEngine([]float64{1}), DriveOptions{
		Batch:   asBatch(func(x []float64) float64 { evals++; return 0 }),
		Context: ctx,
	})
	if !errors.Is(err, context.Canceled) {
		t.Fatalf("err = %v, want context.Canceled", err)
	}
	if evals != 0 {
		t.Fatalf("canceled run evaluated %d points", evals)
	}
}

// TestCheckpointErrorAborts: a failing checkpoint (e.g. a poisoned
// journal writer) aborts the run with that error.
func TestCheckpointErrorAborts(t *testing.T) {
	boom := errors.New("journal full")
	iters := 0
	res, err := Drive(resumeEngine([]float64{10, 10}), DriveOptions{
		Batch: asBatch(sphere),
		Checkpoint: func(json.RawMessage) error {
			if iters++; iters == 2 {
				return boom
			}
			return nil
		},
	})
	if !errors.Is(err, boom) {
		t.Fatalf("err = %v, want the checkpoint error", err)
	}
	if len(res.History) != 2 {
		t.Fatalf("history has %d iterations after abort at 2", len(res.History))
	}
}
