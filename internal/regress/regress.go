// Package regress manages regression suites: the destination of
// AS-CDG's harvest step (paper Section IV-F, "this test-template is
// added to the regression suite of the DUV") and the template-selection
// queries of the TAC line of work (ref [3] suggests regression policies
// focused on hardly-hit events; Yang et al. [12] drop templates that
// contribute nothing).
//
// Two optimizations are provided:
//
//   - Minimize: the smallest template subset that preserves the suite's
//     total event coverage (greedy set cover);
//   - Policy: an allocation of a simulation budget across templates that
//     maximizes the expected number of (optionally weighted) events hit
//     at least once, using TAC per-template hit probabilities.
package regress

import (
	"fmt"
	"sort"

	"repro/internal/coverage"
)

// Entry is one regression-suite member: a template's name with its
// aggregated coverage statistics.
type Entry struct {
	Name   string
	Counts *coverage.Counts
}

// Suite is a regression suite over one coverage model.
type Suite struct {
	model   *coverage.Model
	entries []Entry
	byName  map[string]int
}

// NewSuite returns an empty suite for the model.
func NewSuite(m *coverage.Model) *Suite {
	return &Suite{model: m, byName: map[string]int{}}
}

// Add registers a template's statistics. Adding an existing name
// replaces its entry.
func (s *Suite) Add(name string, counts *coverage.Counts) error {
	if name == "" {
		return fmt.Errorf("regress: entry needs a name")
	}
	if counts == nil || counts.Sims() == 0 {
		return fmt.Errorf("regress: entry %q has no simulation statistics", name)
	}
	if counts.Len() != s.model.Size() {
		return fmt.Errorf("regress: entry %q counts track %d events, model has %d",
			name, counts.Len(), s.model.Size())
	}
	e := Entry{Name: name, Counts: counts}
	if i, ok := s.byName[name]; ok {
		s.entries[i] = e
		return nil
	}
	s.byName[name] = len(s.entries)
	s.entries = append(s.entries, e)
	return nil
}

// FromRepository builds a suite from a coverage repository's
// per-template statistics.
func FromRepository(repo *coverage.Repository) (*Suite, error) {
	s := NewSuite(repo.Model())
	for _, name := range repo.TemplateNames() {
		counts, _ := repo.Template(name)
		if err := s.Add(name, counts); err != nil {
			return nil, err
		}
	}
	return s, nil
}

// Len returns the number of suite entries.
func (s *Suite) Len() int { return len(s.entries) }

// Names returns the entry names in insertion order.
func (s *Suite) Names() []string {
	names := make([]string, len(s.entries))
	for i, e := range s.entries {
		names[i] = e.Name
	}
	return names
}

// Entry returns the named entry and whether it exists.
func (s *Suite) Entry(name string) (Entry, bool) {
	i, ok := s.byName[name]
	if !ok {
		return Entry{}, false
	}
	return s.entries[i], true
}

// Covered returns the IDs of all events hit by at least one entry.
func (s *Suite) Covered() []int {
	var ids []int
	for id := 0; id < s.model.Size(); id++ {
		for _, e := range s.entries {
			if e.Counts.Hits(id) > 0 {
				ids = append(ids, id)
				break
			}
		}
	}
	return ids
}

// Minimize returns the names of a small subset of entries that covers
// every event the full suite covers, using the classic greedy set-cover
// heuristic (largest marginal coverage first; ties prefer higher total
// hit mass, then lexicographic order for determinism).
func (s *Suite) Minimize() []string {
	remaining := map[int]bool{}
	for _, id := range s.Covered() {
		remaining[id] = true
	}
	used := map[string]bool{}
	var picked []string
	for len(remaining) > 0 {
		bestIdx := -1
		bestGain := 0
		var bestMass uint64
		for i, e := range s.entries {
			if used[e.Name] {
				continue
			}
			gain := 0
			var mass uint64
			for id := range remaining {
				if h := e.Counts.Hits(id); h > 0 {
					gain++
					mass += h
				}
			}
			better := gain > bestGain ||
				(gain == bestGain && gain > 0 && mass > bestMass) ||
				(gain == bestGain && gain > 0 && mass == bestMass && bestIdx >= 0 && e.Name < s.entries[bestIdx].Name)
			if better {
				bestIdx, bestGain, bestMass = i, gain, mass
			}
		}
		if bestIdx < 0 {
			break // unreachable if Covered was computed from the same entries
		}
		e := s.entries[bestIdx]
		used[e.Name] = true
		picked = append(picked, e.Name)
		for id := range remaining {
			if e.Counts.Hits(id) > 0 {
				delete(remaining, id)
			}
		}
	}
	sort.Strings(picked)
	return picked
}

// Policy allocates a budget of simulations across the suite's templates
// to maximize the expected number of focus events hit at least once.
// focus maps event ID -> importance weight; nil focuses uniformly on
// every event the suite can hit. The allocation is greedy in chunks:
// each chunk goes to the template with the highest marginal expected
// gain given the miss probabilities accumulated so far. The returned
// map's values sum to budget (when budget >= chunk and some template
// has nonzero gain).
func (s *Suite) Policy(budget int, focus map[int]float64) map[string]int {
	const chunk = 10
	alloc := map[string]int{}
	if budget <= 0 || len(s.entries) == 0 {
		return alloc
	}
	if focus == nil {
		focus = map[int]float64{}
		for _, id := range s.Covered() {
			focus[id] = 1
		}
	}
	// pMiss[e] = probability event e is missed by the allocation so far.
	pMiss := map[int]float64{}
	for id := range focus {
		pMiss[id] = 1
	}
	// Per-template, per-focus-event hit probabilities.
	type tp struct {
		name  string
		probs map[int]float64
	}
	tps := make([]tp, 0, len(s.entries))
	for _, e := range s.entries {
		probs := map[int]float64{}
		for id := range focus {
			if p := e.Counts.HitRate(id); p > 0 {
				probs[id] = p
			}
		}
		tps = append(tps, tp{name: e.Name, probs: probs})
	}
	sort.Slice(tps, func(i, j int) bool { return tps[i].name < tps[j].name })

	for spent := 0; spent < budget; {
		step := chunk
		if budget-spent < step {
			step = budget - spent
		}
		bestIdx, bestGain := -1, 0.0
		for i, t := range tps {
			gain := 0.0
			for id, p := range t.probs {
				// Expected newly-hit mass of `step` sims of this template.
				miss := pMiss[id]
				if miss == 0 {
					continue
				}
				gain += focus[id] * miss * (1 - pow1m(p, step))
			}
			if gain > bestGain {
				bestIdx, bestGain = i, gain
			}
		}
		if bestIdx < 0 {
			break // nothing can improve the focus set
		}
		t := tps[bestIdx]
		alloc[t.name] += step
		for id, p := range t.probs {
			pMiss[id] *= pow1m(p, step)
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
