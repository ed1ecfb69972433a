package neighbors

import (
	"testing/quick"

	"math"
	"repro/internal/rng"
	"testing"

	"repro/internal/coverage"
)

func familyModel(t *testing.T) *coverage.Model {
	t.Helper()
	m := coverage.MustModel([]string{"lvl1", "lvl2", "lvl3", "lvl4", "other"})
	if err := m.AddFamily("levels", []string{"lvl1", "lvl2", "lvl3", "lvl4"}); err != nil {
		t.Fatal(err)
	}
	return m
}

func TestUniformTarget(t *testing.T) {
	tgt := Uniform([]int{2, 5, 9})
	if tgt.Len() != 3 {
		t.Fatalf("Len = %d", tgt.Len())
	}
	for _, e := range []int{2, 5, 9} {
		if tgt.Weight(e) != 1 {
			t.Fatalf("weight(%d) = %v", e, tgt.Weight(e))
		}
	}
	if tgt.Weight(1) != 0 {
		t.Fatal("non-member weight should be 0")
	}
	ev := tgt.Events()
	if len(ev) != 3 || ev[0] != 2 || ev[2] != 9 {
		t.Fatalf("Events = %v", ev)
	}
	ws := tgt.Weights()
	if len(ws) != 3 || ws[0] != 1 {
		t.Fatalf("Weights = %v", ws)
	}
}

func TestNewTargetDeduplicatesKeepingMax(t *testing.T) {
	tgt := NewTarget([]Weighted{{1, 0.5}, {1, 0.9}, {2, 0.3}, {2, 0.1}})
	if tgt.Len() != 2 {
		t.Fatalf("Len = %d", tgt.Len())
	}
	if tgt.Weight(1) != 0.9 || tgt.Weight(2) != 0.3 {
		t.Fatalf("weights = %v, %v", tgt.Weight(1), tgt.Weight(2))
	}
}

func TestTargetScore(t *testing.T) {
	m := familyModel(t)
	c := coverage.NewCountsFor(m)
	for i := 0; i < 10; i++ {
		v := coverage.NewVectorFor(m)
		v.Set(0) // always
		if i < 5 {
			v.Set(1) // 50%
		}
		c.Add(v)
	}
	tgt := NewTarget([]Weighted{{0, 1}, {1, 2}})
	// 1*1.0 + 2*0.5 = 2.0
	if got := tgt.Score(c); math.Abs(got-2.0) > 1e-12 {
		t.Fatalf("Score = %v", got)
	}
	if got := Uniform(nil).Score(c); got != 0 {
		t.Fatalf("empty target score = %v", got)
	}
}

func TestOrdinal(t *testing.T) {
	m := familyModel(t)
	// Target is lvl4 (id 3), decay 0.5.
	ws, err := Ordinal(m, "levels", []int{3}, 0.5)
	if err != nil {
		t.Fatal(err)
	}
	if len(ws) != 4 {
		t.Fatalf("ws = %v", ws)
	}
	want := map[int]float64{0: 0.125, 1: 0.25, 2: 0.5, 3: 1}
	for _, w := range ws {
		if math.Abs(w.Weight-want[w.Event]) > 1e-12 {
			t.Fatalf("event %d weight = %v, want %v", w.Event, w.Weight, want[w.Event])
		}
	}
}

func TestOrdinalMultipleTargets(t *testing.T) {
	m := familyModel(t)
	ws, err := Ordinal(m, "levels", []int{0, 3}, 0.5)
	if err != nil {
		t.Fatal(err)
	}
	// Distance to nearest target: lvl1=0, lvl2=1, lvl3=1, lvl4=0.
	want := map[int]float64{0: 1, 1: 0.5, 2: 0.5, 3: 1}
	for _, w := range ws {
		if math.Abs(w.Weight-want[w.Event]) > 1e-12 {
			t.Fatalf("event %d weight = %v, want %v", w.Event, w.Weight, want[w.Event])
		}
	}
}

func TestOrdinalDecayOneIsUniform(t *testing.T) {
	m := familyModel(t)
	ws, err := Ordinal(m, "levels", []int{3}, 1)
	if err != nil {
		t.Fatal(err)
	}
	for _, w := range ws {
		if w.Weight != 1 {
			t.Fatalf("decay 1 should be uniform: %v", ws)
		}
	}
}

func TestOrdinalErrors(t *testing.T) {
	m := familyModel(t)
	if _, err := Ordinal(m, "nope", []int{0}, 0.5); err == nil {
		t.Error("unknown family should fail")
	}
	if _, err := Ordinal(m, "levels", []int{4}, 0.5); err == nil {
		t.Error("target outside family should fail")
	}
	if _, err := Ordinal(m, "levels", []int{0}, 0); err == nil {
		t.Error("decay 0 should fail")
	}
	if _, err := Ordinal(m, "levels", []int{0}, 1.5); err == nil {
		t.Error("decay > 1 should fail")
	}
	if _, err := Ordinal(m, "levels", []int{0}, math.NaN()); err == nil {
		t.Error("decay NaN should fail")
	}
}

func crossModel(t *testing.T) (*coverage.Model, *coverage.CrossProduct) {
	t.Helper()
	cp, err := coverage.NewCrossProduct("x", []coverage.Dim{
		{Name: "a", Values: []string{"a0", "a1"}},
		{Name: "b", Values: []string{"b0", "b1", "b2"}},
	})
	if err != nil {
		t.Fatal(err)
	}
	m := coverage.MustModel(cp.EventNames())
	if err := m.AddCross(cp); err != nil {
		t.Fatal(err)
	}
	return m, cp
}

func TestCrossNeighbors(t *testing.T) {
	m, _ := crossModel(t)
	target := m.MustLookup("x_a0_b0")
	ws, err := CrossNeighbors(m, "x", []int{target}, 0.5, -1)
	if err != nil {
		t.Fatal(err)
	}
	if len(ws) != 6 {
		t.Fatalf("ws = %v", ws)
	}
	byEvent := map[int]float64{}
	for _, w := range ws {
		byEvent[w.Event] = w.Weight
	}
	if byEvent[target] != 1 {
		t.Fatalf("target weight = %v", byEvent[target])
	}
	if byEvent[m.MustLookup("x_a1_b0")] != 0.5 {
		t.Fatalf("distance-1 weight = %v", byEvent[m.MustLookup("x_a1_b0")])
	}
	if byEvent[m.MustLookup("x_a1_b2")] != 0.25 {
		t.Fatalf("distance-2 weight = %v", byEvent[m.MustLookup("x_a1_b2")])
	}
}

func TestCrossNeighborsMaxDist(t *testing.T) {
	m, _ := crossModel(t)
	target := m.MustLookup("x_a0_b0")
	ws, err := CrossNeighbors(m, "x", []int{target}, 0.5, 1)
	if err != nil {
		t.Fatal(err)
	}
	// Distance <= 1: the target + 1 along a + 2 along b = 4 events.
	if len(ws) != 4 {
		t.Fatalf("ws = %v", ws)
	}
}

func TestCrossNeighborsErrors(t *testing.T) {
	m, _ := crossModel(t)
	if _, err := CrossNeighbors(m, "nope", []int{0}, 0.5, -1); err == nil {
		t.Error("unknown cross should fail")
	}
	if _, err := CrossNeighbors(m, "x", []int{0}, 2, -1); err == nil {
		t.Error("bad decay should fail")
	}
	if _, err := CrossNeighbors(m, "x", []int{0}, math.NaN(), -1); err == nil {
		t.Error("decay NaN should fail")
	}
	big := coverage.MustModel([]string{"x_a0_b0", "lone"})
	cp, _ := coverage.NewCrossProduct("x", []coverage.Dim{{Name: "a", Values: []string{"a0"}}, {Name: "b", Values: []string{"b0"}}})
	if err := big.AddCross(cp); err != nil {
		t.Fatal(err)
	}
	if _, err := CrossNeighbors(big, "x", []int{big.MustLookup("lone")}, 0.5, -1); err == nil {
		t.Error("target outside cross should fail")
	}
}

// correlatedRepo builds a repository where events 0 and 1 are hit by the
// same templates (correlated) and event 2 by a different one.
func correlatedRepo(t *testing.T) *coverage.Repository {
	t.Helper()
	m := coverage.MustModel([]string{"buddyA", "buddyB", "loner", "dark"})
	repo := coverage.NewRepository(m)
	for i := 0; i < 100; i++ {
		v := coverage.NewVectorFor(m)
		if i < 80 {
			v.Set(0)
		}
		if i < 60 {
			v.Set(1)
		}
		repo.Record("t_buddies", v)
	}
	for i := 0; i < 100; i++ {
		v := coverage.NewVectorFor(m)
		if i < 90 {
			v.Set(2)
		}
		repo.Record("t_loner", v)
	}
	return repo
}

func TestCorrelated(t *testing.T) {
	repo := correlatedRepo(t)
	m := repo.Model()
	ws, err := Correlated(repo, []int{m.MustLookup("buddyA")}, 0.5)
	if err != nil {
		t.Fatal(err)
	}
	byEvent := map[int]float64{}
	for _, w := range ws {
		byEvent[w.Event] = w.Weight
	}
	if byEvent[m.MustLookup("buddyA")] != 1 {
		t.Fatal("target must be included with weight 1")
	}
	if byEvent[m.MustLookup("buddyB")] < 0.99 {
		t.Fatalf("buddyB similarity = %v, want ~1", byEvent[m.MustLookup("buddyB")])
	}
	if _, ok := byEvent[m.MustLookup("loner")]; ok {
		t.Fatal("loner should not correlate with buddyA")
	}
}

func TestCorrelatedUncoveredTargetUsesGroupSeed(t *testing.T) {
	repo := correlatedRepo(t)
	m := repo.Model()
	// "dark" is uncovered; grouped with buddyA the seed comes from
	// buddyA's profile, pulling in buddyB.
	ws, err := Correlated(repo, []int{m.MustLookup("dark"), m.MustLookup("buddyA")}, 0.5)
	if err != nil {
		t.Fatal(err)
	}
	found := false
	for _, w := range ws {
		if w.Event == m.MustLookup("buddyB") {
			found = true
		}
	}
	if !found {
		t.Fatal("group seed did not recruit buddyB")
	}
}

func TestCorrelatedErrors(t *testing.T) {
	repo := correlatedRepo(t)
	m := repo.Model()
	if _, err := Correlated(repo, nil, 0.5); err == nil {
		t.Error("no targets should fail")
	}
	if _, err := Correlated(repo, []int{m.MustLookup("dark")}, 0.5); err == nil {
		t.Error("all-uncovered targets should fail with guidance")
	}
	empty := coverage.NewRepository(m)
	if _, err := Correlated(empty, []int{0}, 0.5); err == nil {
		t.Error("empty repository should fail")
	}
}

func TestCosineHelpers(t *testing.T) {
	if cosine([]float64{1, 0}, []float64{0, 1}) != 0 {
		t.Error("orthogonal cosine should be 0")
	}
	if math.Abs(cosine([]float64{1, 1}, []float64{2, 2})-1) > 1e-12 {
		t.Error("parallel cosine should be 1")
	}
	if cosine([]float64{0, 0}, []float64{1, 1}) != 0 {
		t.Error("zero vector cosine should be 0")
	}
}

func TestOrdinalWeightsBoundedProperty(t *testing.T) {
	m := familyModel(t)
	f := func(seed uint64) bool {
		r := rng.New(seed)
		decay := 0.05 + r.Float64()*0.95
		target := []int{r.Intn(4)} // family members have IDs 0..3
		ws, err := Ordinal(m, "levels", target, decay)
		if err != nil {
			return false
		}
		sawTarget := false
		for _, w := range ws {
			if w.Weight <= 0 || w.Weight > 1 {
				return false
			}
			if w.Event == target[0] && w.Weight == 1 {
				sawTarget = true
			}
		}
		return sawTarget
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 300}); err != nil {
		t.Fatal(err)
	}
}

func TestCrossNeighborsWeightsBoundedProperty(t *testing.T) {
	m, _ := crossModel(t)
	f := func(seed uint64) bool {
		r := rng.New(seed)
		decay := 0.05 + r.Float64()*0.95
		target := r.Intn(m.Size())
		ws, err := CrossNeighbors(m, "x", []int{target}, decay, -1)
		if err != nil {
			return false
		}
		if len(ws) != m.Size() {
			return false
		}
		for _, w := range ws {
			if w.Weight <= 0 || w.Weight > 1 {
				return false
			}
		}
		return true
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 200}); err != nil {
		t.Fatal(err)
	}
}
