package skeleton

import (
	"flag"
	"fmt"
	"os"
	"strings"
	"testing"

	"repro/internal/duv"
	_ "repro/internal/duv/ifu"
	_ "repro/internal/duv/iounit"
	_ "repro/internal/duv/l3cache"
	_ "repro/internal/duv/noc"
	"repro/internal/generator"
	"repro/internal/rng"
)

var updateInstantiateGolden = flag.Bool("update-instantiate-golden", false,
	"rewrite testdata/instantiate.golden (ONLY for deliberate behavior changes)")

// goldenOptions are the skeletonizations the golden covers: the flow's
// default, zero weights marked, and a geometric split.
var goldenOptions = []struct {
	name string
	opts Options
}{
	{"default", Options{}},
	{"zero_weights", Options{IncludeZeroWeights: true, Subranges: 3}},
	{"geometric", Options{Mode: Geometric, Subranges: 5, MaxWeight: 40}},
}

// goldenPoints are the weight vectors instantiated per skeleton: two
// seeded in-box draws, every slot zero (each parameter revived), every
// slot at the box top, tied weights that round to zero (the revive
// tie-break), out-of-box values (the clamp) and halves (the rounding).
func goldenPoints(s *Skeleton, r *rng.RNG) [][]float64 {
	d, max := s.Dim(), float64(s.MaxWeight())
	fill := func(f func(i int) float64) []float64 {
		x := make([]float64, d)
		for i := range x {
			x[i] = f(i)
		}
		return x
	}
	return [][]float64{
		s.RandomWeights(r),
		s.RandomWeights(r),
		fill(func(int) float64 { return 0 }),
		fill(func(int) float64 { return max }),
		fill(func(int) float64 { return 0.3 }),
		fill(func(i int) float64 { return float64(i%3-1) * 1.5 * max }),
		fill(func(i int) float64 { return float64(i) + 0.5 }),
	}
}

// instantiateGolden renders seeded instantiations of every registered
// unit's base templates under each of goldenOptions.
func instantiateGolden(t *testing.T) string {
	var b strings.Builder
	seed := uint64(0)
	for _, name := range duv.Names() {
		unit, err := duv.New(name)
		if err != nil {
			t.Fatal(err)
		}
		for _, base := range unit.BaseTemplates() {
			for _, o := range goldenOptions {
				fmt.Fprintf(&b, "== %s/%s/%s\n", name, base.Name, o.name)
				s, err := Skeletonize(base, o.opts)
				if err != nil {
					fmt.Fprintf(&b, "error: %v\n", err)
					continue
				}
				seed++
				r := rng.New(seed)
				for i, x := range goldenPoints(s, r) {
					tmpl, err := s.Instantiate(fmt.Sprintf("p%d", i), x)
					if err != nil {
						fmt.Fprintf(&b, "p%d error: %v\n", i, err)
						continue
					}
					b.WriteString(tmpl.String())
				}
			}
		}
	}
	return b.String()
}

// TestInstantiateGolden pins Instantiate's output, byte for byte, to the
// file written before slots were resolved by position.
func TestInstantiateGolden(t *testing.T) {
	got := instantiateGolden(t)
	path := "testdata/instantiate.golden"
	if *updateInstantiateGolden {
		if err := os.MkdirAll("testdata", 0o755); err != nil {
			t.Fatal(err)
		}
		if err := os.WriteFile(path, []byte(got), 0o644); err != nil {
			t.Fatal(err)
		}
		return
	}
	want, err := os.ReadFile(path)
	if err != nil {
		t.Fatal(err)
	}
	if got != string(want) {
		gl, wl := strings.Split(got, "\n"), strings.Split(string(want), "\n")
		for i := 0; i < len(gl) && i < len(wl); i++ {
			if gl[i] != wl[i] {
				t.Fatalf("%s differs at line %d:\n got %q\nwant %q", path, i+1, gl[i], wl[i])
			}
		}
		t.Fatalf("%s differs in length: got %d lines, want %d", path, len(gl), len(wl))
	}
}

// TestInstantiateCompiles: Skeletonize(t).Instantiate(w) compiles, over
// the unit's own defaults, for every base template of every unit and
// every w in the box — seeded draws, all zero, all at the top and tied.
func TestInstantiateCompiles(t *testing.T) {
	for _, name := range duv.Names() {
		unit, err := duv.New(name)
		if err != nil {
			t.Fatal(err)
		}
		bind := generator.Bind(unit.Defaults())
		for _, base := range unit.BaseTemplates() {
			for _, o := range goldenOptions {
				s, err := Skeletonize(base, o.opts)
				if err != nil {
					t.Fatalf("%s/%s/%s: %v", name, base.Name, o.name, err)
				}
				r := rng.New(7)
				points := goldenPoints(s, r)
				for range 20 {
					points = append(points, s.RandomWeights(r))
				}
				for i, x := range points {
					inst, err := s.Instantiate("p", x)
					if err != nil {
						t.Fatalf("%s/%s/%s point %d: %v", name, base.Name, o.name, i, err)
					}
					if err := bind.Compile(inst).Err(); err != nil {
						t.Errorf("%s/%s/%s point %d: %v\n%s", name, base.Name, o.name, i, err, inst)
					}
				}
			}
		}
	}
}

// TestSkeletonPointAllocs pins what one skeleton point costs on the
// batch path: instantiating it, and compiling it over bound defaults.
func TestSkeletonPointAllocs(t *testing.T) {
	unit, err := duv.New("iounit")
	if err != nil {
		t.Fatal(err)
	}
	var s *Skeleton // the unit's widest skeleton
	for _, base := range unit.BaseTemplates() {
		sk, err := Skeletonize(base, Options{})
		if err != nil {
			t.Fatal(err)
		}
		if s == nil || sk.Dim() > s.Dim() {
			s = sk
		}
	}
	x := s.RandomWeights(rng.New(3))
	inst, err := s.Instantiate("p", x)
	if err != nil {
		t.Fatal(err)
	}
	bind := generator.Bind(unit.Defaults())
	// Instantiate: the template, its parameter list, parameters and
	// entries, then one label per subrange for Validate. Binding.Compile:
	// the plan, its slots, the overrides' tables and each override's
	// lists; the defaults are the binding's.
	for _, c := range []struct {
		name string
		max  float64
		f    func()
	}{
		{"Instantiate", 16, func() { s.Instantiate("p", x) }},
		{"Binding.Compile", 15, func() { bind.Compile(inst) }},
	} {
		if got := testing.AllocsPerRun(100, c.f); got > c.max {
			t.Errorf("%s: %v allocs per run, want at most %v", c.name, got, c.max)
		}
	}
}
