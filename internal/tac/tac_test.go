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
