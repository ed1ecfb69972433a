package generator_test

import (
	"fmt"
	"sort"
	"testing"

	"repro/internal/coverage"
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
// interpreter (generator.CheckDecisions) on every slot. Every template
// Parse accepts also round-trips through its printed form, which is how
// a farm chunk carries it and how the corpus cache keys a base suite:
// the reparse succeeds, String is a fixed point, and over each unit's
// defaults both parses compile to the same plan error or to plans that
// decide alike (sameDecisions). A plan that compiles also simulates:
// two instances of it stay inside the unit's model (simulateInRange).
// The seed corpus
// under testdata/fuzz/FuzzCompileDecide holds the units' base templates,
// the equivalence templates of compiled_test.go (equiv_*) and the three
// over-wide draws of TestPlanErrors (overflow_*), each over one unit's
// parameters, and the shapes at the edges of the threshold tables
// (threshold_*: totals above 4,096 and of exactly 1<<32, zero weights in
// every position, thresholds on a bucket edge, 256 and 300 entries),
// one seed per unit — the unsuffixed one is the I/O unit's. A finding
// becomes a row of TestPlanErrors.
func FuzzCompileDecide(f *testing.F) {
	var units []duv.DUV
	for _, name := range duv.Names() {
		unit, err := duv.New(name)
		if err != nil {
			f.Fatal(err)
		}
		units = append(units, unit)
	}
	f.Fuzz(func(t *testing.T, src string) {
		tmpl, err := template.Parse(src)
		if err != nil {
			return
		}
		text := tmpl.String()
		back, err := template.Parse(text)
		if err != nil {
			t.Fatalf("the printed form does not parse: %v\n%s", err, text)
		}
		if again := back.String(); again != text {
			t.Fatalf("String is not a fixed point:\n%s\nreprints as\n%s", text, again)
		}
		for _, unit := range units {
			d := unit.Defaults()
			_ = generator.CheckDecisions(t, tmpl, d, 1, 256) // a plan error is a legal answer
			sameDecisions(t, tmpl, back, d)
			simulateInRange(t, unit, tmpl)
		}
	})
}

// simulateInRange checks that, when tmpl compiles over unit's defaults,
// the unit simulates two instances of it into vectors of the model's
// size that hit only events the model has.
func simulateInRange(t *testing.T, unit duv.DUV, tmpl *template.Template) {
	t.Helper()
	plan := generator.Compile(tmpl, unit.Defaults())
	if plan.Err() != nil {
		return
	}
	size := unit.Model().Size()
	g := generator.NewFromPlan(plan, 0)
	for seed := uint64(1); seed <= 2; seed++ {
		g.Reset(seed)
		v := unit.Simulate(g)
		if v.Len() != size {
			t.Fatalf("%s: seed %d: vector of %d events, model has %d", unit.Name(), seed, v.Len(), size)
		}
		// A copy of the vector's first size bits equals it only if no
		// bit beyond the model's events is set.
		inside := coverage.NewVector(size)
		for id := 0; id < size; id++ {
			if v.Get(id) {
				inside.Set(id)
			}
		}
		if !v.Equal(inside) {
			t.Fatalf("%s: seed %d: an event outside the model's %d is hit", unit.Name(), seed, size)
		}
	}
}

// sameDecisions checks that a and b compile over d to the same plan
// error, or to plans whose generators, from one seed, make the same
// decisions on every parameter of d and end at the same stream state.
func sameDecisions(t *testing.T, a, b *template.Template, d generator.Defaults) {
	t.Helper()
	pa, pb := generator.Compile(a, d), generator.Compile(b, d)
	if ea, eb := fmt.Sprint(pa.Err()), fmt.Sprint(pb.Err()); ea != eb {
		t.Fatalf("the reparse compiles to another plan error: %s, then %s", ea, eb)
	}
	if pa.Err() != nil {
		return
	}
	names := make([]string, 0, len(d))
	for name := range d {
		names = append(names, name)
	}
	sort.Strings(names)
	ga, gb := generator.NewFromPlan(pa, 7), generator.NewFromPlan(pb, 7)
	for i := 0; i < 32; i++ {
		for _, name := range names {
			var x, y any
			if w, ok := d[name].(*template.WeightParam); ok && !w.Entries[0].IsRange {
				x, y = ga.PickValue(name), gb.PickValue(name)
			} else {
				x, y = ga.PickInt(name), gb.PickInt(name)
			}
			if x != y {
				t.Fatalf("%s decision %d: %v, then %v after the reparse", name, i, x, y)
			}
		}
	}
	if ga.RNG().State() != gb.RNG().State() {
		t.Fatal("the reparse's generator ends at another stream state")
	}
}
