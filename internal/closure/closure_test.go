package closure

import (
	"strings"
	"testing"
	"time"

	"repro/internal/coverage"
)

func mkCounts(m *coverage.Model, sims int, hits map[string]int) *coverage.Counts {
	c := coverage.NewCountsFor(m)
	for s := 0; s < sims; s++ {
		v := coverage.NewVectorFor(m)
		for name, h := range hits {
			if s < h {
				v.Set(m.MustLookup(name))
			}
		}
		c.Add(v)
	}
	return c
}

func testTracker(t *testing.T) (*Tracker, *coverage.Model) {
	t.Helper()
	m := coverage.MustModel([]string{"a", "b", "c", "d"})
	tr := NewTracker(m)
	at := time.Date(2026, 7, 1, 0, 0, 0, 0, time.UTC)
	// Snapshot 1: a well hit, b lightly, c/d never.
	if err := tr.Record("week1", at, mkCounts(m, 1000, map[string]int{"a": 500, "b": 5})); err != nil {
		t.Fatal(err)
	}
	// Snapshot 2: a well, b well, c lightly, d never.
	if err := tr.Record("week2", at.AddDate(0, 0, 7),
		mkCounts(m, 5000, map[string]int{"a": 2500, "b": 500, "c": 10})); err != nil {
		t.Fatal(err)
	}
	return tr, m
}

func TestRecordAndCoverage(t *testing.T) {
	tr, _ := testTracker(t)
	if tr.Len() != 2 {
		t.Fatalf("Len = %d", tr.Len())
	}
	s1 := tr.Snapshot(0)
	if s1.Coverage() != 0.5 { // a, b of 4
		t.Fatalf("week1 coverage = %v", s1.Coverage())
	}
	if s1.well != 1 { // a only
		t.Fatalf("week1 well = %d", s1.well)
	}
	latest, ok := tr.Latest()
	if !ok || latest.Label != "week2" {
		t.Fatalf("Latest = %+v, %v", latest, ok)
	}
	if latest.Coverage() != 0.75 {
		t.Fatalf("week2 coverage = %v", latest.Coverage())
	}
}

func TestRecordValidation(t *testing.T) {
	m := coverage.MustModel([]string{"a"})
	tr := NewTracker(m)
	if err := tr.Record("bad", time.Time{}, coverage.NewCounts(5)); err == nil {
		t.Fatal("size mismatch should fail")
	}
}

func TestDiff(t *testing.T) {
	tr, m := testTracker(t)
	d, err := tr.Diff(0, 1)
	if err != nil {
		t.Fatal(err)
	}
	if d.From != "week1" || d.To != "week2" {
		t.Fatalf("labels = %q -> %q", d.From, d.To)
	}
	if len(d.NewlyCovered) != 1 || d.NewlyCovered[0] != m.MustLookup("c") {
		t.Fatalf("NewlyCovered = %v", d.NewlyCovered)
	}
	if len(d.Improved) != 1 || d.Improved[0] != m.MustLookup("b") {
		t.Fatalf("Improved = %v", d.Improved)
	}
	if len(d.Regressed) != 0 {
		t.Fatalf("Regressed = %v", d.Regressed)
	}
	if d.Sims != 4000 {
		t.Fatalf("Sims = %d", d.Sims)
	}
}

func TestDiffDetectsRegression(t *testing.T) {
	m := coverage.MustModel([]string{"a"})
	tr := NewTracker(m)
	if err := tr.Record("s1", time.Time{}, mkCounts(m, 1000, map[string]int{"a": 500})); err != nil {
		t.Fatal(err)
	}
	// Re-based aggregate in which a is only lightly hit.
	if err := tr.Record("s2", time.Time{}, mkCounts(m, 1000, map[string]int{"a": 5})); err != nil {
		t.Fatal(err)
	}
	d, err := tr.Diff(0, 1)
	if err != nil {
		t.Fatal(err)
	}
	if len(d.Regressed) != 1 {
		t.Fatalf("Regressed = %v", d.Regressed)
	}
}

func TestDiffErrors(t *testing.T) {
	tr, _ := testTracker(t)
	for _, pair := range [][2]int{{-1, 1}, {0, 2}, {1, 1}, {1, 0}} {
		if _, err := tr.Diff(pair[0], pair[1]); err == nil {
			t.Errorf("Diff(%d,%d) should fail", pair[0], pair[1])
		}
	}
}

func TestVelocity(t *testing.T) {
	tr, _ := testTracker(t)
	// 1 newly covered event over 4000 sims -> 250 per million.
	if got := tr.Velocity(); got != 250 {
		t.Fatalf("Velocity = %v", got)
	}
	empty := NewTracker(coverage.MustModel([]string{"a"}))
	if empty.Velocity() != 0 {
		t.Fatal("empty tracker velocity should be 0")
	}
}

func TestReport(t *testing.T) {
	tr, _ := testTracker(t)
	rep := tr.Report(0)
	for _, want := range []string{"week1", "week2", "coverage", "still uncovered: 1 events", "d"} {
		if !strings.Contains(rep, want) {
			t.Errorf("report missing %q:\n%s", want, rep)
		}
	}
}

func TestReportCapsUncovered(t *testing.T) {
	m := coverage.MustModel([]string{"a", "b", "c", "d", "e"})
	tr := NewTracker(m)
	if err := tr.Record("s", time.Time{}, mkCounts(m, 100, nil)); err != nil {
		t.Fatal(err)
	}
	rep := tr.Report(2)
	if !strings.Contains(rep, "first 2 shown") {
		t.Fatalf("cap not applied:\n%s", rep)
	}
	if strings.Count(rep, "\n  ") != 2 {
		t.Fatalf("want 2 uncovered rows:\n%s", rep)
	}
}

func TestReportEmptyTracker(t *testing.T) {
	tr := NewTracker(coverage.MustModel([]string{"a"}))
	if rep := tr.Report(0); !strings.Contains(rep, "snapshot") {
		t.Fatalf("empty report = %q", rep)
	}
}
