// Package tac implements Template-Aware Coverage: first-order statistics
// on the coverage achieved by each test-template, and the queries the
// coarse-grained search of AS-CDG issues against them (paper Section
// IV-B, ref [3]).
//
// TAC answers one question for the flow: given the (approximated) target
// events, which existing test-templates hit them best? The parameters of
// those templates are the ones the fine-grained search then tunes.
package tac

import (
	"fmt"
	"sort"

	"repro/internal/coverage"
)

// Stats provides TAC queries over a coverage repository.
type Stats struct {
	repo *coverage.Repository
}

// New wraps a repository in the TAC query interface.
func New(repo *coverage.Repository) *Stats {
	return &Stats{repo: repo}
}

// TemplateScore is one template's score under a TAC query.
type TemplateScore struct {
	Name  string
	Score float64
	Sims  uint64
}

// BestTemplates returns the best n templates for hitting the given
// events, weighted by weights (nil = uniform). The score of a template
// is the weighted sum of its per-event hit probabilities — the same
// functional form as the approximated target, so the coarse and fine
// searches optimize a consistent quantity. Templates with no recorded
// simulations are skipped; ties break lexicographically for determinism.
func (s *Stats) BestTemplates(events []int, weights []float64, n int) ([]TemplateScore, error) {
	if len(events) == 0 {
		return nil, fmt.Errorf("tac: no target events given")
	}
	if weights != nil && len(weights) != len(events) {
		return nil, fmt.Errorf("tac: %d weights for %d events", len(weights), len(events))
	}
	var scores []TemplateScore
	for _, name := range s.repo.TemplateNames() {
		c, _ := s.repo.Template(name)
		if c.Sims() == 0 {
			continue
		}
		score := 0.0
		for i, e := range events {
			w := 1.0
			if weights != nil {
				w = weights[i]
			}
			score += w * c.HitRate(e)
		}
		scores = append(scores, TemplateScore{Name: name, Score: score, Sims: c.Sims()})
	}
	rank(scores)
	if n > 0 && len(scores) > n {
		scores = scores[:n]
	}
	return scores, nil
}

// EventTemplates returns every template that hit the event at least
// once, best hit probability first.
func (s *Stats) EventTemplates(event int) []TemplateScore {
	var scores []TemplateScore
	for _, name := range s.repo.TemplateNames() {
		c, _ := s.repo.Template(name)
		if c.Hits(event) == 0 {
			continue
		}
		scores = append(scores, TemplateScore{Name: name, Score: c.HitRate(event), Sims: c.Sims()})
	}
	rank(scores)
	return scores
}

// rank sorts scores best first: score descending, ties by name ascending
// for determinism.
func rank(scores []TemplateScore) {
	sort.SliceStable(scores, func(i, j int) bool {
		if scores[i].Score != scores[j].Score {
			return scores[i].Score > scores[j].Score
		}
		return scores[i].Name < scores[j].Name
	})
}

// EventRow is one line of a per-event TAC report.
type EventRow struct {
	Event   int
	Name    string
	Hits    uint64
	Rate    float64
	Status  coverage.Status
	BestTpl string  // best template for this event ("" if never hit)
	BestP   float64 // that template's hit probability
}

// Report builds a per-event summary over the given events (nil = all),
// the raw material of the tacquery CLI.
func (s *Stats) Report(events []int) []EventRow {
	m := s.repo.Model()
	if events == nil {
		events = make([]int, m.Size())
		for i := range events {
			events[i] = i
		}
	}
	total := s.repo.Total()
	rows := make([]EventRow, 0, len(events))
	for _, e := range events {
		row := EventRow{
			Event:  e,
			Name:   m.Name(e),
			Hits:   total.Hits(e),
			Rate:   total.HitRate(e),
			Status: total.Status(e),
		}
		if best := s.EventTemplates(e); len(best) > 0 {
			row.BestTpl = best[0].Name
			row.BestP = best[0].Score
		}
		rows = append(rows, row)
	}
	return rows
}
