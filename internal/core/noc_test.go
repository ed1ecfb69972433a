package core

import (
	"testing"

	"repro/internal/coverage"
	"repro/internal/duv/noc"
)

func TestFlowNoCFamily(t *testing.T) {
	flow := newFlow(t, noc.New(), smallConfig(51))
	report, err := runOne(flow, Target{Family: noc.FamilyName, Decay: 0.5})
	if err != nil {
		t.Fatal(err)
	}
	before := report.Phase("before").Counts
	best := report.Phase("best").Counts
	newly := 0
	for _, ev := range report.TargetEvents {
		if before.Hits(ev) != 0 {
			t.Fatalf("target %d covered before CDG", ev)
		}
		if best.Hits(ev) > 0 {
			newly++
		}
	}
	if newly == 0 {
		t.Error("no previously-uncovered retry-depth target was hit")
	}
}

func TestFlowNoCCrossUTurnsStayDark(t *testing.T) {
	unit := noc.New()
	flow := newFlow(t, unit, smallConfig(52))
	report, err := runOne(flow, Target{Cross: noc.CrossName})
	if err != nil {
		t.Fatal(err)
	}
	m := unit.Model()
	best := report.Phase("best").Counts

	// The 16 u-turn events (in==out) must stay uncovered — the unit
	// capability limit the flow surfaces rather than hides.
	cp := unit.Cross()
	uturns := 0
	for _, name := range cp.EventNames() {
		coords, err := cp.Coords(name)
		if err != nil {
			t.Fatal(err)
		}
		if coords[0] == coords[2] { // inport index == outport index
			uturns++
			if best.Hits(m.MustLookup(name)) != 0 {
				t.Fatalf("u-turn event %s hit", name)
			}
		}
	}
	if uturns != 16 {
		t.Fatalf("u-turn slice = %d events, want 16", uturns)
	}

	// Uniform default traffic already covers every routable pair, so the
	// only targets left are the unroutable u-turns — which the flow must
	// surface as still-never-hit, exactly like the paper's entry7 events,
	// while keeping the routable events covered.
	ids, err := m.IDs(cp.EventNames())
	if err != nil {
		t.Fatal(err)
	}
	bestSC := best.StatusCounts(ids)
	if bestSC[coverage.StatusNever] != 16 {
		t.Errorf("never-hit = %d, want exactly the 16 u-turns", bestSC[coverage.StatusNever])
	}
	if bestSC[coverage.StatusWell]+bestSC[coverage.StatusLightly] != 64 {
		t.Errorf("routable events covered = %d, want 64",
			bestSC[coverage.StatusWell]+bestSC[coverage.StatusLightly])
	}
	// Every real target the flow reported is a u-turn.
	for _, ev := range report.TargetEvents {
		coords, err := cp.Coords(m.Name(ev))
		if err != nil {
			t.Fatal(err)
		}
		if coords[0] != coords[2] {
			t.Errorf("routable event %s was reported as an uncovered target", m.Name(ev))
		}
	}
}
