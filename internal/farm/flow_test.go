package farm

import (
	"context"
	"reflect"
	"testing"
	"time"

	"repro/internal/core"
	"repro/internal/duv/iounit"
)

// flowFingerprint reduces a flow report to everything the farm must
// preserve: the harvested template, the optimizer trajectory, every
// phase's exact per-event counts, and the simulation accounting.
type flowFingerprint struct {
	Best      string
	Weights   []float64
	Progress  []float64
	Phases    map[string][]uint64
	TotalSims uint64
}

func flowFP(r *core.Report) flowFingerprint {
	fp := flowFingerprint{
		Best:      r.BestTemplate.String(),
		Weights:   r.BestWeights,
		Phases:    map[string][]uint64{},
		TotalSims: r.TotalSims,
	}
	for _, h := range r.Progress {
		fp.Progress = append(fp.Progress, h.Best)
	}
	for _, p := range r.Phases {
		hits := make([]uint64, 0, p.Counts.Len()+1)
		for i := 0; i < p.Counts.Len(); i++ {
			hits = append(hits, p.Counts.Hits(i))
		}
		fp.Phases[p.Name] = append(hits, p.Counts.Sims())
	}
	return fp
}

func runFlow(t *testing.T, faults []Faults) flowFingerprint {
	t.Helper()
	cfg := core.Config{
		Seed:                  21,
		Workers:               3,
		CorpusSimsPerTemplate: 120,
		TopTemplates:          2,
		Subranges:             3,
		SampleTemplates:       12,
		SampleSims:            20,
		OptIterations:         5,
		OptDirections:         5,
		OptSims:               25,
		BestSims:              250,
	}
	if faults != nil {
		d, _ := farmFixture(t, faults, nil)
		if err := d.WaitReady(10 * time.Second); err != nil {
			t.Fatal(err)
		}
		cfg.Runner = d
		cfg.RunnerLanes = d.Lanes()
	}
	flow := core.NewFlow(iounit.New(), cfg)
	defer flow.Close()
	reports, err := flow.Run(context.Background(), core.Target{Family: iounit.FamilyName})
	if err != nil {
		t.Fatal(err)
	}
	return flowFP(reports[0])
}

// TestFlowReportBitIdenticalWithFarm runs the paper's full per-family
// flow — corpus, TAC search, skeleton, sampling, optimization, harvest
// — locally, against a healthy fleet, and against a misbehaving fleet,
// and demands the identical report from a fixed seed. This is the
// system-level form of the farm's acceptance criterion: distribution
// (and distribution failures) must be invisible in every number the
// reproduction publishes.
func TestFlowReportBitIdenticalWithFarm(t *testing.T) {
	if testing.Short() {
		t.Skip("full flow x3; skipped in -short")
	}
	local := runFlow(t, nil)
	healthy := runFlow(t, []Faults{{}, {}})
	if !reflect.DeepEqual(local, healthy) {
		t.Fatalf("healthy farm diverged from local flow:\n%+v\nvs\n%+v", healthy, local)
	}
	faulty := runFlow(t, []Faults{
		{DropAfterFrames: 10, Delay: time.Millisecond},
		{DuplicateEvery: 2, FailDials: 2},
	})
	if !reflect.DeepEqual(local, faulty) {
		t.Fatalf("faulty farm diverged from local flow:\n%+v\nvs\n%+v", faulty, local)
	}
}
