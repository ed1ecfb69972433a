// Package neighbors implements the approximated-target machinery of
// AS-CDG (paper Section IV-A).
//
// A data-driven search for an uncovered event has no positive evidence
// to climb: every candidate template scores zero. AS-CDG therefore
// replaces the real target with an approximated target induced by
// *neighbor* events — events that, when hit more often, indicate the
// relevant area of the DUV is being exercised, raising the probability
// of the target itself.
//
// The paper lists three neighbor sources, all reproduced here:
//
//   - the natural order of buffer utilization (Wagner et al. [8]):
//     Ordinal, using the model's ordered event families;
//   - the structure of a cross-product coverage model (Fine & Ziv
//     [15]): CrossNeighbors, using Hamming distance over attributes;
//   - formal analysis (FRIENDS, Gal et al. [16]): substituted by
//     Correlated, which mines co-hit correlations from the coverage
//     repository — the same artifact (a weighted neighbor list) derived
//     from simulation data instead of a formal model (see DESIGN.md).
package neighbors

import (
	"fmt"
	"math"
	"sort"

	"repro/internal/coverage"
)

// Weighted is one neighbor event with its weight in the approximated
// target.
type Weighted struct {
	Event  int
	Weight float64
}

// Target is an approximated target function: a weighted sum of event hit
// probabilities, T_N(t) = sum_e w_e * e_N(t) (paper Section IV-D).
type Target struct {
	weights map[int]float64
	order   []int // event IDs in insertion order, deduplicated
}

// NewTarget builds a target from a weighted neighbor list. Duplicate
// events keep their maximum weight.
func NewTarget(ws []Weighted) *Target {
	t := &Target{weights: map[int]float64{}}
	for _, w := range ws {
		if old, ok := t.weights[w.Event]; ok {
			if w.Weight > old {
				t.weights[w.Event] = w.Weight
			}
			continue
		}
		t.weights[w.Event] = w.Weight
		t.order = append(t.order, w.Event)
	}
	return t
}

// Uniform builds a target in which every listed event has weight 1 —
// the paper's default "sum of the hit counts for all the events in the
// family" form (Section V).
func Uniform(events []int) *Target {
	ws := make([]Weighted, len(events))
	for i, e := range events {
		ws[i] = Weighted{Event: e, Weight: 1}
	}
	return NewTarget(ws)
}

// Events returns the target's event IDs in insertion order.
func (t *Target) Events() []int {
	out := make([]int, len(t.order))
	copy(out, t.order)
	return out
}

// Weights returns the weight vector aligned with Events().
func (t *Target) Weights() []float64 {
	out := make([]float64, len(t.order))
	for i, e := range t.order {
		out[i] = t.weights[e]
	}
	return out
}

// Weight returns the weight of one event (0 if not part of the target).
func (t *Target) Weight(event int) float64 { return t.weights[event] }

// Len returns the number of events in the target.
func (t *Target) Len() int { return len(t.order) }

// Score evaluates the target on an aggregate: the weighted sum of
// empirical hit probabilities. Summation runs in insertion order, not
// map order: float addition is not associative, and a per-process
// iteration order would let near-tie optimizer comparisons flip from
// run to run, breaking fixed-seed reproducibility of the whole flow.
func (t *Target) Score(c *coverage.Counts) float64 {
	s := 0.0
	for _, e := range t.order {
		s += float64(t.weights[e] * c.HitRate(e))
	}
	return s
}

// Ordinal returns the neighbors of the target events within their
// ordered family: every family member, weighted by decay^distance where
// distance is the index gap to the nearest target. decay in (0, 1]
// controls how strongly the target favors events close to the real
// targets; decay == 1 reduces to the paper's uniform family sum.
func Ordinal(m *coverage.Model, family string, targets []int, decay float64) ([]Weighted, error) {
	ids, ok := m.Family(family)
	if !ok {
		return nil, fmt.Errorf("neighbors: unknown family %q", family)
	}
	if !(decay > 0 && decay <= 1) {
		return nil, fmt.Errorf("neighbors: decay %v outside (0, 1]", decay)
	}
	pos := map[int]int{}
	for i, id := range ids {
		pos[id] = i
	}
	var targetPos []int
	for _, t := range targets {
		p, ok := pos[t]
		if !ok {
			return nil, fmt.Errorf("neighbors: target %q is not in family %q", m.Name(t), family)
		}
		targetPos = append(targetPos, p)
	}
	out := make([]Weighted, 0, len(ids))
	for i, id := range ids {
		best := math.MaxInt
		for _, tp := range targetPos {
			if d := abs(i - tp); d < best {
				best = d
			}
		}
		out = append(out, Weighted{Event: id, Weight: math.Pow(decay, float64(best))})
	}
	return out, nil
}

// CrossNeighbors returns the neighbors of the target events within a
// cross product: every event at Hamming distance <= maxDist from some
// target, weighted by decay^distance. maxDist < 0 means no limit.
func CrossNeighbors(m *coverage.Model, crossName string, targets []int, decay float64, maxDist int) ([]Weighted, error) {
	cp, ok := m.Cross(crossName)
	if !ok {
		return nil, fmt.Errorf("neighbors: unknown cross product %q", crossName)
	}
	if !(decay > 0 && decay <= 1) {
		return nil, fmt.Errorf("neighbors: decay %v outside (0, 1]", decay)
	}
	targetCoords := make([][]int, 0, len(targets))
	for _, t := range targets {
		coords, err := cp.Coords(m.Name(t))
		if err != nil {
			return nil, fmt.Errorf("neighbors: target %q is not in cross %q", m.Name(t), crossName)
		}
		targetCoords = append(targetCoords, coords)
	}
	var out []Weighted
	for _, name := range cp.EventNames() {
		coords, err := cp.Coords(name)
		if err != nil {
			return nil, err
		}
		best := math.MaxInt
		for _, tc := range targetCoords {
			d := 0
			for i := range coords {
				if coords[i] != tc[i] {
					d++
				}
			}
			if d < best {
				best = d
			}
		}
		if maxDist >= 0 && best > maxDist {
			continue
		}
		id, _ := m.Lookup(name)
		out = append(out, Weighted{Event: id, Weight: math.Pow(decay, float64(best))})
	}
	return out, nil
}

// Correlated mines neighbor candidates from the coverage repository: the
// stand-in for formal FRIENDS analysis. Two events are correlated when
// their per-template hit-probability profiles point in similar
// directions (cosine similarity >= minSim). For covered targets the
// correlation is computed directly; for uncovered targets — which have
// an all-zero profile — the seed profile is the *sum* of the profiles of
// the other target events, mimicking how an expert reasons from the
// covered part of the group toward the uncovered part.
//
// The result always contains the targets themselves (weight 1); other
// events carry their similarity as weight.
func Correlated(repo *coverage.Repository, targets []int, minSim float64) ([]Weighted, error) {
	if len(targets) == 0 {
		return nil, fmt.Errorf("neighbors: no target events")
	}
	m := repo.Model()
	names := repo.TemplateNames()
	if len(names) == 0 {
		return nil, fmt.Errorf("neighbors: repository has no template statistics")
	}
	profile := func(event int) []float64 {
		p := make([]float64, len(names))
		for i, n := range names {
			c, _ := repo.Template(n)
			p[i] = c.HitRate(event)
		}
		return p
	}
	// Seed = sum of target profiles (covered targets contribute; an
	// uncovered target contributes zeros).
	seed := make([]float64, len(names))
	isTarget := map[int]bool{}
	for _, t := range targets {
		isTarget[t] = true
		for i, v := range profile(t) {
			seed[i] += v
		}
	}
	if norm(seed) == 0 {
		return nil, fmt.Errorf("neighbors: no evidence for any target event; use Ordinal or CrossNeighbors")
	}

	out := make([]Weighted, 0, len(targets))
	for _, t := range targets {
		out = append(out, Weighted{Event: t, Weight: 1})
	}
	type cand struct {
		ev  int
		sim float64
	}
	var cands []cand
	for e := 0; e < m.Size(); e++ {
		if isTarget[e] {
			continue
		}
		sim := cosine(seed, profile(e))
		if sim >= minSim {
			cands = append(cands, cand{e, sim})
		}
	}
	sort.Slice(cands, func(i, j int) bool {
		if cands[i].sim != cands[j].sim {
			return cands[i].sim > cands[j].sim
		}
		return cands[i].ev < cands[j].ev
	})
	for _, c := range cands {
		out = append(out, Weighted{Event: c.ev, Weight: c.sim})
	}
	return out, nil
}

func abs(x int) int {
	if x < 0 {
		return -x
	}
	return x
}

func norm(v []float64) float64 {
	s := 0.0
	for _, x := range v {
		s += float64(x * x)
	}
	return math.Sqrt(s)
}

func cosine(a, b []float64) float64 {
	na, nb := norm(a), norm(b)
	if na == 0 || nb == 0 {
		return 0
	}
	dot := 0.0
	for i := range a {
		dot += float64(a[i] * b[i])
	}
	return dot / (na * nb)
}
