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
// of referenceWeightVectors random skeleton instances of every base
// template, and of every template in extra (edge shapes the skeletons do
// not reach).
func MatchesReference(t *testing.T, unit duv.DUV, reference func(*generator.Generator) coverage.Vector, extra ...*template.Template) {
	t.Helper()
	r := rng.New(25)
	tmpls := extra
	for _, b := range unit.BaseTemplates() {
		skel, err := skeleton.Skeletonize(b, skeleton.Options{})
		if err != nil {
			t.Fatal(err)
		}
		for i := 0; i < referenceWeightVectors; i++ {
			inst, err := skel.Instantiate(fmt.Sprintf("%s_%d", b.Name, i), skel.RandomWeights(r))
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
			got, want := generator.NewFromPlan(plan, seed), generator.NewFromPlan(plan, seed)
			if !unit.Simulate(got).Equal(reference(want)) {
				t.Fatalf("%s seed %d: coverage vector differs from the reference model's", tmpl.Name, seed)
			}
			if got.RNG().State() != want.RNG().State() {
				t.Fatalf("%s seed %d: stream state %#x after Simulate, reference %#x",
					tmpl.Name, seed, got.RNG().State(), want.RNG().State())
			}
		}
	}
}
