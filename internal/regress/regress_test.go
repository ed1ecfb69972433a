package regress

import (
	"math"
	"testing"

	"repro/internal/coverage"
)

// mkCounts builds counts over n events: sims simulations, with hits[id]
// hits for each listed event.
func mkCounts(n, sims int, hits map[int]int) *coverage.Counts {
	c := coverage.NewCounts(n)
	for s := 0; s < sims; s++ {
		v := coverage.NewVector(n)
		for id, h := range hits {
			if s < h {
				v.Set(id)
			}
		}
		c.Add(v)
	}
	return c
}

func testSuite(t *testing.T) (*Suite, *coverage.Model) {
	t.Helper()
	m := coverage.MustModel([]string{"a", "b", "c", "d", "e"})
	s := NewSuite(m)
	add := func(name string, hits map[int]int) {
		t.Helper()
		if err := s.Add(name, mkCounts(m.Size(), 100, hits)); err != nil {
			t.Fatal(err)
		}
	}
	// t1 covers a,b; t2 covers b,c; t3 covers a,b,c (superset of both);
	// t4 covers d exclusively. Event e is never covered.
	add("t1", map[int]int{0: 50, 1: 40})
	add("t2", map[int]int{1: 30, 2: 20})
	add("t3", map[int]int{0: 60, 1: 60, 2: 60})
	add("t4", map[int]int{3: 10})
	return s, m
}

func TestSuiteBasics(t *testing.T) {
	s, _ := testSuite(t)
	if s.Len() != 4 {
		t.Fatalf("Len = %d", s.Len())
	}
	names := s.Names()
	if len(names) != 4 || names[0] != "t1" {
		t.Fatalf("Names = %v", names)
	}
	e, ok := s.Entry("t3")
	if !ok || e.Counts.Hits(0) != 60 {
		t.Fatalf("Entry(t3) = %+v, %v", e, ok)
	}
	if _, ok := s.Entry("nope"); ok {
		t.Fatal("missing entry found")
	}
	covered := s.Covered()
	if len(covered) != 4 { // a,b,c,d — e uncovered
		t.Fatalf("Covered = %v", covered)
	}
}

func TestAddValidation(t *testing.T) {
	m := coverage.MustModel([]string{"a"})
	s := NewSuite(m)
	if err := s.Add("", mkCounts(1, 10, nil)); err == nil {
		t.Error("empty name should fail")
	}
	if err := s.Add("x", nil); err == nil {
		t.Error("nil counts should fail")
	}
	if err := s.Add("x", coverage.NewCounts(1)); err == nil {
		t.Error("zero-sim counts should fail")
	}
	if err := s.Add("x", mkCounts(3, 10, nil)); err == nil {
		t.Error("size mismatch should fail")
	}
}

func TestAddReplaces(t *testing.T) {
	m := coverage.MustModel([]string{"a"})
	s := NewSuite(m)
	if err := s.Add("x", mkCounts(1, 10, map[int]int{0: 1})); err != nil {
		t.Fatal(err)
	}
	if err := s.Add("x", mkCounts(1, 20, map[int]int{0: 2})); err != nil {
		t.Fatal(err)
	}
	if s.Len() != 1 {
		t.Fatalf("Len = %d after replace", s.Len())
	}
	e, _ := s.Entry("x")
	if e.Counts.Sims() != 20 {
		t.Fatal("replace did not take")
	}
}

func TestMinimizeGreedySetCover(t *testing.T) {
	s, _ := testSuite(t)
	picked := s.Minimize()
	// t3 covers {a,b,c}; t4 covers {d}; t1 and t2 are redundant.
	if len(picked) != 2 || picked[0] != "t3" || picked[1] != "t4" {
		t.Fatalf("Minimize = %v, want [t3 t4]", picked)
	}
}

func TestMinimizePreservesCoverage(t *testing.T) {
	s, m := testSuite(t)
	picked := s.Minimize()
	keep := map[string]bool{}
	for _, n := range picked {
		keep[n] = true
	}
	// Every event covered by the full suite must be covered by the
	// minimized subset.
	for _, id := range s.Covered() {
		hit := false
		for _, name := range s.Names() {
			if !keep[name] {
				continue
			}
			e, _ := s.Entry(name)
			if e.Counts.Hits(id) > 0 {
				hit = true
				break
			}
		}
		if !hit {
			t.Fatalf("event %s lost by minimization", m.Name(id))
		}
	}
}

func TestMinimizeEmptySuite(t *testing.T) {
	s := NewSuite(coverage.MustModel([]string{"a"}))
	if got := s.Minimize(); len(got) != 0 {
		t.Fatalf("empty suite Minimize = %v", got)
	}
}

func TestPolicyBudgetConserved(t *testing.T) {
	s, _ := testSuite(t)
	alloc := s.Policy(100, nil)
	total := 0
	for _, n := range alloc {
		total += n
	}
	if total != 100 {
		t.Fatalf("allocated %d, want 100 (alloc %v)", total, alloc)
	}
}

func TestPolicyFocusesExclusiveTemplate(t *testing.T) {
	s, m := testSuite(t)
	// Focus entirely on event d: only t4 hits it.
	focus := map[int]float64{m.MustLookup("d"): 1}
	alloc := s.Policy(50, focus)
	if alloc["t4"] != 50 {
		t.Fatalf("alloc = %v, want everything on t4", alloc)
	}
}

func TestPolicyPrefersHardlyHitFocus(t *testing.T) {
	s, m := testSuite(t)
	// Focus on the lightly-hit event d (10%) and the easy event a.
	focus := map[int]float64{
		m.MustLookup("a"): 1,
		m.MustLookup("d"): 5, // hardly-hit events matter more
	}
	alloc := s.Policy(200, focus)
	if alloc["t4"] == 0 {
		t.Fatalf("alloc = %v: the only template hitting d got nothing", alloc)
	}
}

func TestPolicyUncoverableFocusStops(t *testing.T) {
	s, m := testSuite(t)
	// Event e is hit by no template: no allocation possible.
	alloc := s.Policy(100, map[int]float64{m.MustLookup("e"): 1})
	if len(alloc) != 0 {
		t.Fatalf("alloc = %v, want empty", alloc)
	}
}

func TestPolicyZeroBudget(t *testing.T) {
	s, _ := testSuite(t)
	if got := s.Policy(0, nil); len(got) != 0 {
		t.Fatalf("zero budget alloc = %v", got)
	}
}

func TestPolicyDeterministic(t *testing.T) {
	s, _ := testSuite(t)
	a := s.Policy(130, nil)
	b := s.Policy(130, nil)
	if len(a) != len(b) {
		t.Fatal("non-deterministic policy")
	}
	for k, v := range a {
		if b[k] != v {
			t.Fatalf("non-deterministic policy: %v vs %v", a, b)
		}
	}
}

func TestFromRepository(t *testing.T) {
	m := coverage.MustModel([]string{"a", "b"})
	repo := coverage.NewRepository(m)
	v := coverage.NewVectorFor(m)
	v.Set(0)
	repo.Record("t1", v)
	s, err := FromRepository(repo)
	if err != nil {
		t.Fatal(err)
	}
	e, ok := s.Entry("t1")
	if !ok || e.Counts.Sims() != 1 || e.Counts.Hits(0) != 1 || e.Counts.Hits(1) != 0 {
		t.Fatalf("entry t1 = %+v, %v; want the repository's one simulation hitting a", e, ok)
	}
}

func TestPow1m(t *testing.T) {
	if got := pow1m(0.5, 2); math.Abs(got-0.25) > 1e-12 {
		t.Fatalf("pow1m(0.5,2) = %v", got)
	}
	if got := pow1m(0.1, 0); got != 1 {
		t.Fatalf("pow1m(_,0) = %v", got)
	}
	if got := pow1m(1, 5); got != 0 {
		t.Fatalf("pow1m(1,5) = %v", got)
	}
}
