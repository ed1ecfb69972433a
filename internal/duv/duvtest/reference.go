package duvtest

import (
	"fmt"
	"testing"

	"repro/internal/coverage"
	"repro/internal/duv"
	"repro/internal/generator"
	"repro/internal/rng"
	"repro/internal/skeleton"
	"repro/internal/template"
)

// Sizes of MatchesReference's sweep: random weight vectors per base
// template's skeleton, and seeds per template.
const (
	referenceWeightVectors = 20
	referenceSeeds         = 200
)

// MatchesReference checks the unit's Simulate against reference, the
// cycle-by-cycle Simulate it replaced and that the unit's test keeps as
// the oracle: for every instance, the same coverage vector and the same
// stream state afterwards, so a model that jumps over cycles makes
// exactly the draws it would have. The instances are referenceSeeds seeds
// of every template in extra (edge shapes the skeletons do not reach) and
// of points of every base template's skeleton: referenceWeightVectors
// random points, and the corners of the box that optimized campaigns
// converge to (corners).
func MatchesReference(t *testing.T, unit duv.DUV, reference func(*generator.Generator) coverage.Vector, extra ...*template.Template) {
	t.Helper()
	r := rng.New(25)
	tmpls := extra
	for _, b := range unit.BaseTemplates() {
		skel, err := skeleton.Skeletonize(b, skeleton.Options{})
		if err != nil {
			t.Fatal(err)
		}
		var points [][]float64
		for i := 0; i < referenceWeightVectors; i++ {
			points = append(points, skel.RandomWeights(r))
		}
		for i, x := range append(points, corners(skel)...) {
			inst, err := skel.Instantiate(fmt.Sprintf("%s_%d", b.Name, i), x)
			if err != nil {
				t.Fatal(err)
			}
			tmpls = append(tmpls, inst)
		}
	}
	for _, tmpl := range tmpls {
		plan := generator.Compile(tmpl, unit.Defaults())
		if err := plan.Err(); err != nil {
			t.Fatalf("%s: %v", tmpl.Name, err)
		}
		for seed := uint64(0); seed < referenceSeeds; seed++ {
			SameAsReference(t, unit, reference, plan, seed)
		}
	}
}

// corners returns the corners of the skeleton's search box: every slot
// at MaxWeight, every slot at zero (which Instantiate revives to one
// entry per parameter), and each slot alone at MaxWeight.
func corners(s *skeleton.Skeleton) [][]float64 {
	top := float64(s.MaxWeight())
	all := make([]float64, s.Dim())
	for i := range all {
		all[i] = top
	}
	out := [][]float64{all, make([]float64, s.Dim())}
	for i := 0; i < s.Dim(); i++ {
		x := make([]float64, s.Dim())
		x[i] = top
		out = append(out, x)
	}
	return out
}

// SameAsReference simulates the instance (plan, seed) with the unit and
// with reference, and fails t unless both give the same coverage vector
// and leave the stream in the same state.
func SameAsReference(t testing.TB, unit duv.DUV, reference func(*generator.Generator) coverage.Vector, plan *generator.Plan, seed uint64) {
	t.Helper()
	got, want := generator.NewFromPlan(plan, seed), generator.NewFromPlan(plan, seed)
	name := plan.Template().Name
	if !unit.Simulate(got).Equal(reference(want)) {
		t.Fatalf("%s seed %d: coverage vector differs from the reference model's", name, seed)
	}
	if got.RNG().State() != want.RNG().State() {
		t.Fatalf("%s seed %d: stream state %#x after Simulate, reference %#x",
			name, seed, got.RNG().State(), want.RNG().State())
	}
}
