package tac

import (
	"math"
	"testing"

	"repro/internal/coverage"
)

// buildRepo creates a repository over events a..d with three templates:
//
//	t_good: hits b 80%, c 40%
//	t_weak: hits b 20%
//	t_off:  hits a 100%
func buildRepo(t *testing.T) *coverage.Repository {
	t.Helper()
	m := coverage.MustModel([]string{"a", "b", "c", "d"})
	repo := coverage.NewRepository(m)
	add := func(name string, n int, hit func(i int, v coverage.Vector)) {
		for i := 0; i < n; i++ {
			v := coverage.NewVectorFor(m)
			hit(i, v)
			repo.Record(name, v)
		}
	}
	add("t_good", 100, func(i int, v coverage.Vector) {
		if i < 80 {
			v.Set(1)
		}
		if i < 40 {
			v.Set(2)
		}
	})
	add("t_weak", 100, func(i int, v coverage.Vector) {
		if i < 20 {
			v.Set(1)
		}
	})
	add("t_off", 100, func(i int, v coverage.Vector) { v.Set(0) })
	return repo
}

func TestBestTemplates(t *testing.T) {
	s := New(buildRepo(t))
	best, err := s.BestTemplates([]int{1, 2}, nil, 2)
	if err != nil {
		t.Fatal(err)
	}
	if len(best) != 2 {
		t.Fatalf("len = %d", len(best))
	}
	if best[0].Name != "t_good" || math.Abs(best[0].Score-1.2) > 1e-9 {
		t.Fatalf("best = %+v", best[0])
	}
	if best[1].Name != "t_weak" {
		t.Fatalf("second = %+v", best[1])
	}
}

func TestBestTemplatesWeighted(t *testing.T) {
	s := New(buildRepo(t))
	// Weight event a so heavily that t_off wins.
	best, err := s.BestTemplates([]int{0, 1}, []float64{10, 1}, 1)
	if err != nil {
		t.Fatal(err)
	}
	if best[0].Name != "t_off" {
		t.Fatalf("weighted best = %+v", best[0])
	}
}

func TestBestTemplatesErrors(t *testing.T) {
	s := New(buildRepo(t))
	if _, err := s.BestTemplates(nil, nil, 1); err == nil {
		t.Fatal("empty event list should fail")
	}
	if _, err := s.BestTemplates([]int{0}, []float64{1, 2}, 1); err == nil {
		t.Fatal("weight length mismatch should fail")
	}
}

func TestBestTemplatesZeroLimitReturnsAll(t *testing.T) {
	s := New(buildRepo(t))
	best, err := s.BestTemplates([]int{1}, nil, 0)
	if err != nil {
		t.Fatal(err)
	}
	if len(best) != 3 {
		t.Fatalf("len = %d, want all 3", len(best))
	}
}

func TestBestTemplatesDeterministicTieBreak(t *testing.T) {
	m := coverage.MustModel([]string{"x"})
	repo := coverage.NewRepository(m)
	for _, name := range []string{"zeta", "alpha"} {
		v := coverage.NewVectorFor(m)
		v.Set(0)
		repo.Record(name, v)
	}
	s := New(repo)
	best, _ := s.BestTemplates([]int{0}, nil, 2)
	if best[0].Name != "alpha" {
		t.Fatalf("tie break = %v", best)
	}
}

func TestEventTemplates(t *testing.T) {
	s := New(buildRepo(t))
	ets := s.EventTemplates(1)
	if len(ets) != 2 || ets[0].Name != "t_good" || ets[1].Name != "t_weak" {
		t.Fatalf("EventTemplates = %+v", ets)
	}
	if got := s.EventTemplates(3); len(got) != 0 {
		t.Fatalf("never-hit event has templates: %+v", got)
	}
}

func TestReport(t *testing.T) {
	s := New(buildRepo(t))
	rows := s.Report(nil)
	if len(rows) != 4 {
		t.Fatalf("rows = %d", len(rows))
	}
	// Event b: 100 hits over 300 sims -> well hit; best is t_good.
	b := rows[1]
	if b.Name != "b" || b.Hits != 100 || b.BestTpl != "t_good" || b.BestP != 0.8 {
		t.Fatalf("row b = %+v", b)
	}
	d := rows[3]
	if d.Status != coverage.StatusNever || d.BestTpl != "" {
		t.Fatalf("row d = %+v", d)
	}
	sub := s.Report([]int{3})
	if len(sub) != 1 || sub[0].Name != "d" {
		t.Fatalf("sub report = %+v", sub)
	}
}

// suiteRepo builds a repository over events a..e, 100 sims per template:
// t1 covers a,b; t2 covers b,c; t3 covers a,b,c (a superset of both); t4
// covers d alone. Event e is never covered.
func suiteRepo(t *testing.T) (*coverage.Repository, *coverage.Model) {
	t.Helper()
	m := coverage.MustModel([]string{"a", "b", "c", "d", "e"})
	repo := coverage.NewRepository(m)
	add := func(name string, hits map[int]int) {
		c := coverage.NewCountsFor(m)
		for i := 0; i < 100; i++ {
			v := coverage.NewVectorFor(m)
			for id, h := range hits {
				if i < h {
					v.Set(id)
				}
			}
			c.Add(v)
		}
		repo.RecordCounts(name, c)
	}
	add("t1", map[int]int{0: 50, 1: 40})
	add("t2", map[int]int{1: 30, 2: 20})
	add("t3", map[int]int{0: 60, 1: 60, 2: 60})
	add("t4", map[int]int{3: 10})
	return repo, m
}

func TestMinimizeGreedySetCover(t *testing.T) {
	repo, _ := suiteRepo(t)
	picked := New(repo).Minimize()
	// t3 covers {a,b,c}; t4 covers {d}; t1 and t2 are redundant.
	if len(picked) != 2 || picked[0] != "t3" || picked[1] != "t4" {
		t.Fatalf("Minimize = %v, want [t3 t4]", picked)
	}
}

func TestMinimizePreservesCoverage(t *testing.T) {
	repo, m := suiteRepo(t)
	picked := New(repo).Minimize()
	// Every event some template hit must be hit by the minimized subset.
	for id := 0; id < m.Size(); id++ {
		if repo.Total().Hits(id) == 0 {
			continue
		}
		hit := false
		for _, name := range picked {
			if c, _ := repo.Template(name); c.Hits(id) > 0 {
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
	s := New(coverage.NewRepository(coverage.MustModel([]string{"a"})))
	if got := s.Minimize(); len(got) != 0 {
		t.Fatalf("empty suite Minimize = %v", got)
	}
}

func TestPolicyBudgetConserved(t *testing.T) {
	repo, _ := suiteRepo(t)
	alloc := New(repo).Policy(100, nil)
	total := 0
	for _, n := range alloc {
		total += n
	}
	if total != 100 {
		t.Fatalf("allocated %d, want 100 (alloc %v)", total, alloc)
	}
}

func TestPolicyFocusesExclusiveTemplate(t *testing.T) {
	repo, m := suiteRepo(t)
	// Focus entirely on event d: only t4 hits it.
	alloc := New(repo).Policy(50, map[int]float64{m.MustLookup("d"): 1})
	if alloc["t4"] != 50 {
		t.Fatalf("alloc = %v, want everything on t4", alloc)
	}
}

func TestPolicyPrefersHardlyHitFocus(t *testing.T) {
	repo, m := suiteRepo(t)
	// Focus on the lightly-hit event d (10%) and the easy event a.
	focus := map[int]float64{
		m.MustLookup("a"): 1,
		m.MustLookup("d"): 5, // hardly-hit events matter more
	}
	alloc := New(repo).Policy(200, focus)
	if alloc["t4"] == 0 {
		t.Fatalf("alloc = %v: the only template hitting d got nothing", alloc)
	}
}

func TestPolicyUncoverableFocusStops(t *testing.T) {
	repo, m := suiteRepo(t)
	// Event e is hit by no template: no allocation possible.
	alloc := New(repo).Policy(100, map[int]float64{m.MustLookup("e"): 1})
	if len(alloc) != 0 {
		t.Fatalf("alloc = %v, want empty", alloc)
	}
}

func TestPolicyZeroBudget(t *testing.T) {
	repo, _ := suiteRepo(t)
	if got := New(repo).Policy(0, nil); len(got) != 0 {
		t.Fatalf("zero budget alloc = %v", got)
	}
}

func TestPolicyDeterministic(t *testing.T) {
	repo, _ := suiteRepo(t)
	s := New(repo)
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
