package core

import (
	"reflect"
	"testing"

	"repro/internal/duv/iounit"
	"repro/internal/obs"
)

// flowPhases is every phase of the AS-CDG flow, in execution order —
// each must appear as one "phase"-category span in an instrumented run.
var flowPhases = []string{
	"corpus", "neighbors", "tac", "skeleton", "sampling", "optimization", "harvest",
}

func runInstrumented(t *testing.T, workers int, rec *obs.Recorder) reportFingerprint {
	t.Helper()
	cfg := smallConfig(21)
	cfg.Workers = workers
	cfg.Obs = rec
	flow := NewFlow(iounit.New(), cfg)
	defer flow.Close()
	report, err := runOne(flow, Target{Family: iounit.FamilyName})
	if err != nil {
		t.Fatal(err)
	}
	return fingerprint(report)
}

// TestFlowBitIdenticalWithObservability extends the worker-count
// determinism guarantee to the observability axis: the report is bit
// identical with obs off and on, at 1 and at N workers.
func TestFlowBitIdenticalWithObservability(t *testing.T) {
	plain := runInstrumented(t, 1, nil)
	for _, v := range []struct {
		name    string
		workers int
		rec     *obs.Recorder
	}{
		{"workers1_obs", 1, obs.NewRecorder()},
		{"workers4_plain", 4, nil},
		{"workers4_obs", 4, obs.NewRecorder()},
	} {
		if got := runInstrumented(t, v.workers, v.rec); !reflect.DeepEqual(plain, got) {
			t.Fatalf("%s diverged from the uninstrumented single-worker run:\n%+v\n%+v",
				v.name, got, plain)
		}
	}
}

// TestFlowEmitsAllPhaseSpans checks an instrumented run records one
// "phase" span per flow phase, with spans for every one of the seven.
func TestFlowEmitsAllPhaseSpans(t *testing.T) {
	rec := obs.NewRecorder()
	runInstrumented(t, 2, rec)

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
