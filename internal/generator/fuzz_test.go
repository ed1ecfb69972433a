package generator_test

import (
	"testing"

	"repro/internal/duv"
	_ "repro/internal/duv/ifu"
	_ "repro/internal/duv/iounit"
	_ "repro/internal/duv/l3cache"
	_ "repro/internal/duv/noc"
	"repro/internal/generator"
	"repro/internal/template"
)

// FuzzCompileDecide is the hostile-input boundary of the template DSL:
// whatever text cmd/farmd is sent, parsing it and compiling it over any
// registered unit's defaults never panics, and a plan that reports no
// error names only parameters the unit declares and decides like the
// interpreter (generator.CheckDecisions) on every slot. The seed corpus
// under testdata/fuzz/FuzzCompileDecide holds the units' base templates,
// the equivalence templates of compiled_test.go (equiv_*) and the three
// over-wide draws of TestPlanErrors (overflow_*), each over one unit's
// parameters, and the shapes at the edges of the threshold tables
// (threshold_*: totals above 4,096 and of exactly 1<<32, zero weights in
// every position, thresholds on a bucket edge, 256 and 300 entries),
// one seed per unit — the unsuffixed one is the I/O unit's. A finding
// becomes a row of TestPlanErrors.
func FuzzCompileDecide(f *testing.F) {
	var defaults []generator.Defaults
	for _, name := range duv.Names() {
		unit, err := duv.New(name)
		if err != nil {
			f.Fatal(err)
		}
		defaults = append(defaults, unit.Defaults())
	}
	f.Fuzz(func(t *testing.T, src string) {
		tmpl, err := template.Parse(src)
		if err != nil {
			return
		}
		for _, d := range defaults {
			_ = generator.CheckDecisions(t, tmpl, d, 1, 256) // a plan error is a legal answer
		}
	})
}
