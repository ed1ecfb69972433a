package generator

import (
	"math"
	"testing"
	"testing/quick"

	"repro/internal/template"
)

func mustParse(t *testing.T, src string) *template.Template {
	t.Helper()
	tmpl, err := template.Parse(src)
	if err != nil {
		t.Fatal(err)
	}
	return tmpl
}

func testDefaults(t *testing.T) Defaults {
	t.Helper()
	return defaultsOf(t, `
template defaults {
    weight Mnemonic {
        load:  25;
        store: 25;
        add:   25;
        mul:   25;
    }
    range CacheDelay [0 : 100];
    weight Mode {
        fast: 100;
        slow: 0;
    }
}
`)
}

// defaultsOf declares the settings of a template as a unit's defaults.
func defaultsOf(t *testing.T, src string) Defaults {
	t.Helper()
	d := Defaults{}
	for _, p := range mustParse(t, src).Params {
		d[p.ParamName()] = p
	}
	return d
}

func TestTemplateOverridesDefault(t *testing.T) {
	tmpl := mustParse(t, `
template t {
    weight Mnemonic {
        load: 100;
        store: 0;
    }
}
`)
	g := New(tmpl, testDefaults(t), 1)
	for i := 0; i < 200; i++ {
		if v := g.PickValue("Mnemonic"); v != "load" {
			t.Fatalf("template override ignored: got %q", v)
		}
	}
}

func TestDefaultFallback(t *testing.T) {
	tmpl := mustParse(t, "template t { range CacheDelay [1:2]; }")
	g := New(tmpl, testDefaults(t), 2)
	seen := map[string]int{}
	for i := 0; i < 4000; i++ {
		seen[g.PickValue("Mnemonic")]++
	}
	for _, v := range []string{"load", "store", "add", "mul"} {
		if seen[v] < 800 || seen[v] > 1200 {
			t.Errorf("default Mnemonic %q frequency %d, want ~1000", v, seen[v])
		}
	}
}

func TestNilTemplateUsesDefaults(t *testing.T) {
	g := New(nil, testDefaults(t), 3)
	v := g.PickInt("CacheDelay")
	if v < 0 || v > 100 {
		t.Fatalf("CacheDelay = %d out of default range", v)
	}
	if g.Template() != nil {
		t.Fatal("Template() should be nil")
	}
}

func TestPickIntRangeUniform(t *testing.T) {
	g := New(nil, testDefaults(t), 4)
	var sum float64
	const n = 20000
	for i := 0; i < n; i++ {
		v := g.PickInt("CacheDelay")
		if v < 0 || v > 100 {
			t.Fatalf("out of range: %d", v)
		}
		sum += float64(v)
	}
	if mean := sum / n; math.Abs(mean-50) > 1.5 {
		t.Fatalf("mean = %v, want ~50", mean)
	}
}

func TestPickIntSubrangeWeights(t *testing.T) {
	tmpl := mustParse(t, `
template t {
    weight CacheDelay {
        [0:9]:    90;
        [10:100]: 10;
    }
}
`)
	g := New(tmpl, testDefaults(t), 5)
	low := 0
	const n = 20000
	for i := 0; i < n; i++ {
		v := g.PickInt("CacheDelay")
		if v < 0 || v > 100 {
			t.Fatalf("out of range: %d", v)
		}
		if v <= 9 {
			low++
		}
	}
	rate := float64(low) / n
	if math.Abs(rate-0.9) > 0.02 {
		t.Fatalf("low subrange rate = %v, want ~0.9", rate)
	}
}

func TestZeroWeightNeverPicked(t *testing.T) {
	g := New(nil, testDefaults(t), 6)
	for i := 0; i < 500; i++ {
		if v := g.PickValue("Mode"); v != "fast" {
			t.Fatalf("zero-weight value picked: %q", v)
		}
	}
}

func TestAllZeroWeightsUniform(t *testing.T) {
	tmpl := mustParse(t, "template t { weight Mnemonic { load: 0; store: 0; } }")
	g := New(tmpl, testDefaults(t), 7)
	seen := map[string]int{}
	for i := 0; i < 2000; i++ {
		seen[g.PickValue("Mnemonic")]++
	}
	if seen["load"] < 800 || seen["store"] < 800 || len(seen) != 2 {
		t.Fatalf("all-zero weights not uniform: %v", seen)
	}
}

func TestSingleEntryFastPath(t *testing.T) {
	tmpl := mustParse(t, "template t { weight Mnemonic { add: 0; } }")
	g := New(tmpl, testDefaults(t), 8)
	if v := g.PickValue("Mnemonic"); v != "add" {
		t.Fatalf("single entry pick = %q", v)
	}
}

func TestDeterminism(t *testing.T) {
	d := defaultsOf(t, "template d { weight A { x: 1; y: 1; z: 1; } range B [0 : 1]; }")
	f := func(seed uint64) bool {
		tmpl, err := template.Parse(`
template t {
    weight A { x: 1; y: 2; z: 3; }
    range B [0 : 1000];
}
`)
		if err != nil {
			return false
		}
		g1 := New(tmpl, d, seed)
		g2 := New(tmpl, d, seed)
		for i := 0; i < 50; i++ {
			if g1.PickValue("A") != g2.PickValue("A") {
				return false
			}
			if g1.PickInt("B") != g2.PickInt("B") {
				return false
			}
		}
		return true
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 50}); err != nil {
		t.Fatal(err)
	}
}

func TestDifferentSeedsDiffer(t *testing.T) {
	tmpl := mustParse(t, "template t { range CacheDelay [0 : 1000000]; }")
	g1 := New(tmpl, testDefaults(t), 100)
	g2 := New(tmpl, testDefaults(t), 101)
	same := 0
	for i := 0; i < 50; i++ {
		if g1.PickInt("CacheDelay") == g2.PickInt("CacheDelay") {
			same++
		}
	}
	if same > 2 {
		t.Fatalf("different seeds coincided %d/50 times", same)
	}
}

func TestPanicsOnUnknownParam(t *testing.T) {
	defer func() {
		if recover() == nil {
			t.Fatal("PickValue of unknown param should panic")
		}
	}()
	New(nil, nil, 0).PickValue("Missing")
}

func TestPanicsOnWrongKind(t *testing.T) {
	g := New(nil, testDefaults(t), 0)
	func() {
		defer func() {
			if recover() == nil {
				t.Error("PickValue on a range param should panic")
			}
		}()
		g.PickValue("CacheDelay")
	}()
	func() {
		defer func() {
			if recover() == nil {
				t.Error("PickInt on a symbolic weight param should panic")
			}
		}()
		g.PickInt("Mnemonic")
	}()
}

func TestPickIntUnknownPanics(t *testing.T) {
	defer func() {
		if recover() == nil {
			t.Fatal("PickInt of unknown param should panic")
		}
	}()
	New(nil, nil, 0).PickInt("Missing")
}

func TestRNGSharedStream(t *testing.T) {
	g := New(nil, testDefaults(t), 11)
	// Auxiliary draws from RNG() must be deterministic per seed.
	a := New(nil, testDefaults(t), 11)
	if g.RNG().Uint64() != a.RNG().Uint64() {
		t.Fatal("RNG() streams of equal seeds must agree")
	}
}

func TestWeightedMixMatchesWeights(t *testing.T) {
	tmpl := mustParse(t, `
template t {
    weight Mnemonic {
        load:  40;
        store: 40;
        add:   0;
        mul:   20;
    }
}
`)
	g := New(tmpl, testDefaults(t), 12)
	seen := map[string]int{}
	const n = 50000
	for i := 0; i < n; i++ {
		seen[g.PickValue("Mnemonic")]++
	}
	if seen["add"] != 0 {
		t.Fatalf("add picked %d times despite zero weight", seen["add"])
	}
	for v, w := range map[string]float64{"load": 0.4, "store": 0.4, "mul": 0.2} {
		got := float64(seen[v]) / n
		if math.Abs(got-w) > 0.01 {
			t.Errorf("%s rate = %v, want ~%v", v, got, w)
		}
	}
}
