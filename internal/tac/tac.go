// Package tac implements Template-Aware Coverage: first-order statistics
// on the coverage achieved by each test-template, and the queries the
// coarse-grained search of AS-CDG issues against them (paper Section
// IV-B, ref [3]).
//
// TAC answers one question for the flow: given the (approximated) target
// events, which existing test-templates hit them best? The parameters of
// those templates are the ones the fine-grained search then tunes.
//
// The same statistics are the regression suite the harvest step adds to
// (Section IV-F), and answer its two queries: Minimize, the smallest
// template subset that keeps the suite's coverage (Yang et al. [12] drop
// templates that contribute nothing), and Policy, a simulation budget
// spread over the templates to hit the most (optionally weighted) events
// at least once, the hardly-hit-events policy of ref [3].
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
			score += float64(w * c.HitRate(e))
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

// covered returns the IDs of every event some template hit, ascending.
func (s *Stats) covered() []int {
	total := s.repo.Total()
	var ids []int
	for id := 0; id < total.Len(); id++ {
		if total.Hits(id) > 0 {
			ids = append(ids, id)
		}
	}
	return ids
}

// Minimize returns, sorted, the names of a small set of templates that
// together hit every event the repository's templates hit: the classic
// greedy set cover. Each step picks the template hitting the most
// still-uncovered events; ties go to the larger hit mass on them, then
// to the lexicographically first name (TemplateNames is sorted, and only
// a strictly better template replaces the pick).
func (s *Stats) Minimize() []string {
	remaining := s.covered()
	names := s.repo.TemplateNames()
	var picked []string
	for len(remaining) > 0 {
		var best *coverage.Counts
		bestName, bestGain, bestMass := "", 0, uint64(0)
		for _, name := range names {
			c, _ := s.repo.Template(name)
			gain, mass := 0, uint64(0)
			for _, id := range remaining {
				if h := c.Hits(id); h > 0 {
					gain++
					mass += h
				}
			}
			if gain > bestGain || gain == bestGain && mass > bestMass {
				best, bestName, bestGain, bestMass = c, name, gain, mass
			}
		}
		if best == nil {
			break // unreachable: the total is the templates' sum
		}
		picked = append(picked, bestName)
		kept := remaining[:0]
		for _, id := range remaining {
			if best.Hits(id) == 0 {
				kept = append(kept, id)
			}
		}
		remaining = kept
	}
	sort.Strings(picked)
	return picked
}

// Policy allocates a budget of simulations across the templates to
// maximize the expected number of focus events hit at least once.
// focus maps event ID -> importance weight; nil focuses uniformly on
// every event some template hit. The allocation is greedy in chunks:
// each chunk goes to the template with the highest marginal expected
// gain given the miss probabilities accumulated so far. The allocation
// stops once no template has a positive gain: every focus event is hit
// by no template, or is already missed with a probability that has
// underflowed to 0. The returned map's values then sum to less than
// budget, and the caller says what is left.
func (s *Stats) Policy(budget int, focus map[int]float64) map[string]int {
	const chunk = 10
	alloc := map[string]int{}
	names := s.repo.TemplateNames()
	if budget <= 0 || len(names) == 0 {
		return alloc
	}
	// The focus events in ascending ID order, so every sum below adds
	// in one order.
	var ids []int
	var weights []float64
	if focus == nil {
		ids = s.covered()
		for range ids {
			weights = append(weights, 1)
		}
	} else {
		for id := 0; id < s.repo.Model().Size(); id++ {
			if w, ok := focus[id]; ok {
				ids, weights = append(ids, id), append(weights, w)
			}
		}
	}
	// pMiss[i] is the probability focus event ids[i] is missed by the
	// allocation so far; probs[t][i] is template t's hit probability on it.
	pMiss := make([]float64, len(ids))
	for i := range pMiss {
		pMiss[i] = 1
	}
	probs := make([][]float64, len(names))
	for t, name := range names {
		c, _ := s.repo.Template(name)
		probs[t] = make([]float64, len(ids))
		for i, id := range ids {
			probs[t][i] = c.HitRate(id)
		}
	}

	for spent := 0; spent < budget; {
		step := chunk
		if budget-spent < step {
			step = budget - spent
		}
		bestIdx, bestGain := -1, 0.0
		for t := range names {
			gain := 0.0
			for i, p := range probs[t] {
				// Expected newly-hit mass of `step` sims of this template.
				gain += float64(weights[i] * pMiss[i] * (1 - pow1m(p, step)))
			}
			if gain > bestGain {
				bestIdx, bestGain = t, gain
			}
		}
		if bestIdx < 0 {
			break // nothing can improve the focus set
		}
		alloc[names[bestIdx]] += step
		for i, p := range probs[bestIdx] {
			pMiss[i] *= pow1m(p, step)
		}
		spent += step
	}
	return alloc
}

// pow1m returns (1-p)^n.
func pow1m(p float64, n int) float64 {
	out := 1.0
	base := 1 - p
	for n > 0 {
		if n&1 == 1 {
			out *= base
		}
		base *= base
		n >>= 1
	}
	return out
}
