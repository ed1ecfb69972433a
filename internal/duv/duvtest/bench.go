package duvtest

import (
	"testing"

	"repro/internal/duv"
	"repro/internal/generator"
	"repro/internal/rng"
	"repro/internal/skeleton"
	"repro/internal/template"
)

// SkeletonPoint is the unit's base template base skeletonized and
// instantiated, as base+"_point", at the first random weights of seed 1:
// the shape of test-instance a campaign's sampling phase simulates.
func SkeletonPoint(tb testing.TB, unit duv.DUV, base string) *template.Template {
	tb.Helper()
	for _, b := range unit.BaseTemplates() {
		if b.Name != base {
			continue
		}
		skel, err := skeleton.Skeletonize(b, skeleton.Options{})
		if err != nil {
			tb.Fatal(err)
		}
		point, err := skel.Instantiate(base+"_point", skel.RandomWeights(rng.New(1)))
		if err != nil {
			tb.Fatal(err)
		}
		return point
	}
	tb.Fatalf("%s: no base template %q", unit.Name(), base)
	return nil
}

// BenchmarkSimulate times one instance of the unit per template, in a
// sub-benchmark named after the template: seeds 0, 1, ... of one plan on
// one generator, as a campaign's batch runs them.
func BenchmarkSimulate(b *testing.B, unit duv.DUV, tmpls ...*template.Template) {
	for _, tmpl := range tmpls {
		plan := generator.Compile(tmpl, unit.Defaults())
		if err := plan.Err(); err != nil {
			b.Fatalf("%s: %v", tmpl.Name, err)
		}
		b.Run(tmpl.Name, func(b *testing.B) {
			g := generator.NewFromPlan(plan, 0)
			b.ResetTimer()
			for i := 0; i < b.N; i++ {
				g.Reset(uint64(i))
				unit.Simulate(g)
			}
		})
	}
}
