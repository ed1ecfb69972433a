package core

import (
	"strings"
	"testing"

	"repro/internal/duv/l3cache"
)

func TestRunEventsCorrelatedTarget(t *testing.T) {
	flow := newFlow(t, l3cache.New(), smallConfig(31))
	// byp_reqs03 has evidence in the corpus; correlation mining should
	// recruit its ladder siblings as neighbors and the flow should
	// sharply improve its hit rate.
	report, err := runOne(flow, Target{Events: []string{"byp_reqs03"}})
	if err != nil {
		t.Fatal(err)
	}
	m := flow.Env().Unit().Model()
	id := m.MustLookup("byp_reqs03")
	before := report.Phase("before").Counts
	best := report.Phase("best").Counts
	if best.HitRate(id) <= before.HitRate(id) {
		t.Errorf("byp_reqs03: best %.4f <= before %.4f", best.HitRate(id), before.HitRate(id))
	}
	// The mined target must include more than just the target itself.
	if report.Target.Len() < 2 {
		t.Errorf("correlation mining found no neighbors: target size %d", report.Target.Len())
	}
	if report.Target.Weight(id) != 1 {
		t.Errorf("target event weight = %v, want 1", report.Target.Weight(id))
	}
}

func TestRunEventsErrors(t *testing.T) {
	flow := newFlow(t, l3cache.New(), smallConfig(32))
	if _, err := runOne(flow, Target{Events: []string{}}); err == nil {
		t.Error("no events should fail")
	}
	if _, err := runOne(flow, Target{Events: []string{"no_such_event"}}); err == nil {
		t.Error("unknown event should fail")
	}
	// A completely dark target has no profile to correlate with.
	_, err := runOne(flow, Target{Events: []string{"byp_reqs16"}})
	if err == nil {
		t.Fatal("dark target should fail with guidance")
	}
	if !strings.Contains(err.Error(), "Ordinal or CrossNeighbors") {
		t.Fatalf("error should point at the structural methods: %v", err)
	}
}
