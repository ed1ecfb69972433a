package core

import (
	"testing"

	"repro/internal/duv/iounit"
	"repro/internal/obs"
)

// flowPhases is every phase of the AS-CDG flow, in execution order —
// each must appear as one "phase"-category span in an instrumented run.
var flowPhases = []string{
	"corpus", "neighbors", "tac", "skeleton", "sampling", "optimization", "harvest",
}

// TestFlowEmitsAllPhaseSpans checks an instrumented run records one
// "phase" span per flow phase, with spans for every one of the seven.
func TestFlowEmitsAllPhaseSpans(t *testing.T) {
	rec := obs.NewRecorder()
	cfg := smallConfig(21)
	cfg.Workers, cfg.Obs = 2, rec
	flow := newFlow(t, iounit.New(), cfg)
	defer flow.Close()
	if _, err := runOne(flow, Target{Family: iounit.FamilyName}); err != nil {
		t.Fatal(err)
	}

	byName := map[string]int{}
	for _, ev := range rec.Trace.Events() {
		if ev.Cat == "phase" {
			if ev.Ph != "X" {
				t.Fatalf("phase span with ph %q, want X", ev.Ph)
			}
			byName[ev.Name]++
		}
	}
	for _, name := range flowPhases {
		if byName[name] == 0 {
			t.Fatalf("no %q phase span recorded; got %v", name, byName)
		}
	}

	// The flow's scheduler and optimizer instrumentation ride along.
	snap := rec.Metrics.Snapshot()
	if snap.Counters["sim.instances_completed"] == 0 {
		t.Fatalf("flow run recorded no simulations")
	}
	if snap.Counters["opt.iterations"] == 0 {
		t.Fatalf("flow run recorded no optimizer iterations")
	}
}
