package template

import (
	"os"
	"path/filepath"
	"strings"
	"testing"
	"testing/quick"

	"repro/internal/rng"
)

// lsuSource mirrors the paper's Fig. 1(a) test-template snippet.
const lsuSource = `
// Test-template for stressing the load store unit.
template lsu_stress {
    weight Mnemonic {
        load:  40;
        store: 40;
        add:   0;
        mul:   20;
    }
    range CacheDelay [0 : 100];
}
`

func TestParseLSU(t *testing.T) {
	tmpl, err := Parse(lsuSource)
	if err != nil {
		t.Fatal(err)
	}
	if tmpl.Name != "lsu_stress" {
		t.Fatalf("name = %q", tmpl.Name)
	}
	if len(tmpl.Params) != 2 {
		t.Fatalf("params = %d, want 2", len(tmpl.Params))
	}
	wp := tmpl.Weight("Mnemonic")
	if wp == nil {
		t.Fatal("Mnemonic weight param missing")
	}
	if len(wp.Entries) != 4 {
		t.Fatalf("Mnemonic entries = %d, want 4", len(wp.Entries))
	}
	if e, ok := wp.Entry("add"); !ok || e.Weight != 0 {
		t.Fatalf("add entry = %+v, ok=%v", e, ok)
	}
	total := 0
	for _, e := range wp.Entries {
		total += e.Weight
	}
	if total != 100 {
		t.Fatalf("total weight = %d, want 100", total)
	}
	rp := tmpl.Range("CacheDelay")
	if rp == nil {
		t.Fatal("CacheDelay range param missing")
	}
	if rp.Lo != 0 || rp.Hi != 100 {
		t.Fatalf("CacheDelay = [%d:%d], want [0:100]", rp.Lo, rp.Hi)
	}
}

func TestParseSubrangeEntries(t *testing.T) {
	src := `
template skel {
    weight CacheDelay {
        [0:32]:   70;
        [33:66]:  20;
        [67:100]: 10;
    }
}
`
	tmpl, err := Parse(src)
	if err != nil {
		t.Fatal(err)
	}
	wp := tmpl.Weight("CacheDelay")
	if wp == nil {
		t.Fatal("CacheDelay missing")
	}
	if len(wp.Entries) != 3 {
		t.Fatalf("entries = %d", len(wp.Entries))
	}
	e := wp.Entries[1]
	if !e.IsRange || e.Lo != 33 || e.Hi != 66 || e.Weight != 20 {
		t.Fatalf("entry = %+v", e)
	}
	if e.Label() != "[33:66]" {
		t.Fatalf("label = %q", e.Label())
	}
}

func TestParseComments(t *testing.T) {
	src := "# hash comment\ntemplate t { // trailing\n  range R [1:2]; # after\n}\n"
	if _, err := Parse(src); err != nil {
		t.Fatal(err)
	}
}

func TestParseErrors(t *testing.T) {
	cases := []struct {
		name string
		src  string
		want string
	}{
		{"empty", "", "expected \"template\""},
		{"no name", "template { }", "expected identifier"},
		{"bad keyword", "template t { foo X [1:2]; }", "expected 'weight' or 'range'"},
		{"range hi<lo", "template t { range R [5:2]; }", "hi < lo"},
		{"subrange hi<lo", "template t { weight W { [5:2]: 1; } }", "hi < lo"},
		{"negative weight", "template t { weight W { a: -3; } }", "negative weight"},
		{"dup param", "template t { range R [1:2]; range R [1:2]; }", "duplicate parameter"},
		{"dup entry", "template t { weight W { a: 1; a: 2; } }", "duplicate entry"},
		{"empty weight", "template t { weight W { } }", "no entries"},
		{"unterminated", "template t { range R [1:2];", "unexpected end of input"},
		{"trailing junk", "template t { } extra", "unexpected"},
		{"mark outside skeleton", "template t { weight W { a: <?>; } }", "only valid in skeleton"},
		{"bad char", "template t { weight W { a: 1; } % }", "unexpected character"},
		{"missing semi", "template t { range R [1:2] }", "expected ';'"},
		{"dash not number", "template t { range R [-:2]; }", "'-' must be followed by a digit"},
	}
	for _, tc := range cases {
		t.Run(tc.name, func(t *testing.T) {
			_, err := Parse(tc.src)
			if err == nil {
				t.Fatalf("Parse succeeded, want error containing %q", tc.want)
			}
			if !strings.Contains(err.Error(), tc.want) {
				t.Fatalf("error = %q, want substring %q", err, tc.want)
			}
		})
	}
}

func TestNegativeRangeBounds(t *testing.T) {
	tmpl, err := Parse("template t { range R [-10:-2]; }")
	if err != nil {
		t.Fatal(err)
	}
	rp := tmpl.Range("R")
	if rp.Lo != -10 || rp.Hi != -2 {
		t.Fatalf("R = [%d:%d]", rp.Lo, rp.Hi)
	}
}

func TestRoundTripFixed(t *testing.T) {
	tmpl, err := Parse(lsuSource)
	if err != nil {
		t.Fatal(err)
	}
	out := tmpl.String()
	tmpl2, err := Parse(out)
	if err != nil {
		t.Fatalf("reparse failed: %v\nsource:\n%s", err, out)
	}
	if tmpl2.String() != out {
		t.Fatalf("round trip not stable:\n%s\nvs\n%s", out, tmpl2.String())
	}
}

// randomTemplate builds an arbitrary valid template from a seed, for
// property-based round-trip testing.
func randomTemplate(seed uint64) *Template {
	r := rng.New(seed)
	t := New("t" + string(rune('a'+r.Intn(26))))
	nParams := 1 + r.Intn(5)
	for i := 0; i < nParams; i++ {
		name := "P" + string(rune('A'+i))
		if r.Bool(0.5) {
			wp := &WeightParam{Name: name}
			nEntries := 1 + r.Intn(5)
			for j := 0; j < nEntries; j++ {
				var e WeightEntry
				if r.Bool(0.3) {
					lo := r.Intn(100) - 50
					e = WeightEntry{IsRange: true, Lo: lo, Hi: lo + r.Intn(40), Weight: r.Intn(101)}
					// Subrange labels can collide; skip duplicates.
					if _, dup := wp.Entry(e.Label()); dup {
						continue
					}
				} else {
					e = WeightEntry{Value: "v" + string(rune('a'+j)), Weight: r.Intn(101)}
				}
				wp.Entries = append(wp.Entries, e)
			}
			if len(wp.Entries) == 0 {
				wp.Entries = append(wp.Entries, WeightEntry{Value: "fallback", Weight: 1})
			}
			t.Params = append(t.Params, wp)
		} else {
			lo := r.Intn(200) - 100
			t.Params = append(t.Params, &RangeParam{Name: name, Lo: lo, Hi: lo + r.Intn(100)})
		}
	}
	return t
}

func TestPropertyRoundTrip(t *testing.T) {
	f := func(seed uint64) bool {
		orig := randomTemplate(seed)
		if err := orig.Validate(); err != nil {
			t.Logf("seed %d: generated invalid template: %v", seed, err)
			return false
		}
		src := orig.String()
		parsed, err := Parse(src)
		if err != nil {
			t.Logf("seed %d: parse failed: %v\n%s", seed, err, src)
			return false
		}
		return parsed.String() == src
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 300}); err != nil {
		t.Fatal(err)
	}
}

func TestPropertyCloneIsDeepAndEqual(t *testing.T) {
	f := func(seed uint64) bool {
		orig := randomTemplate(seed)
		clone := orig.Clone()
		if clone.String() != orig.String() {
			return false
		}
		// Mutating the clone must not affect the original.
		for _, p := range clone.Params {
			if wp, ok := p.(*WeightParam); ok {
				wp.Entries[0].Weight += 7
			}
			if rp, ok := p.(*RangeParam); ok {
				rp.Hi += 5
			}
		}
		reparsed, err := Parse(orig.String())
		return err == nil && reparsed.String() == orig.String()
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 200}); err != nil {
		t.Fatal(err)
	}
}

func TestSetParamReplaces(t *testing.T) {
	tmpl, _ := Parse(lsuSource)
	tmpl.SetParam(&RangeParam{Name: "CacheDelay", Lo: 5, Hi: 9})
	if len(tmpl.Params) != 2 {
		t.Fatalf("params = %d, want 2 after replace", len(tmpl.Params))
	}
	rp := tmpl.Range("CacheDelay")
	if rp.Lo != 5 || rp.Hi != 9 {
		t.Fatalf("replace failed: %+v", rp)
	}
	tmpl.SetParam(&RangeParam{Name: "New", Lo: 1, Hi: 2})
	if len(tmpl.Params) != 3 {
		t.Fatal("append failed")
	}
}

func TestParamLookupsWrongKind(t *testing.T) {
	tmpl, _ := Parse(lsuSource)
	if tmpl.Weight("CacheDelay") != nil {
		t.Error("Weight on a range param should return nil")
	}
	if tmpl.Range("Mnemonic") != nil {
		t.Error("Range on a weight param should return nil")
	}
	if tmpl.Weight("NoSuch") != nil || tmpl.Range("NoSuch") != nil {
		t.Error("lookup of missing param should return nil")
	}
}

func TestValidateProgrammatic(t *testing.T) {
	cases := []struct {
		name string
		tmpl *Template
		want string
	}{
		{"no name", &Template{}, "no name"},
		{"empty param name", &Template{Name: "t", Params: []Param{&RangeParam{Name: ""}}}, "empty name"},
		{"dup", &Template{Name: "t", Params: []Param{
			&RangeParam{Name: "A", Lo: 0, Hi: 1},
			&RangeParam{Name: "A", Lo: 0, Hi: 1},
		}}, "duplicate parameter"},
		{"empty weight", &Template{Name: "t", Params: []Param{&WeightParam{Name: "W"}}}, "no entries"},
		{"empty entry value", &Template{Name: "t", Params: []Param{
			&WeightParam{Name: "W", Entries: []WeightEntry{{Value: "", Weight: 1}}},
		}}, "no value"},
		{"neg weight", &Template{Name: "t", Params: []Param{
			&WeightParam{Name: "W", Entries: []WeightEntry{{Value: "a", Weight: -1}}},
		}}, "negative weight"},
		{"bad subrange", &Template{Name: "t", Params: []Param{
			&WeightParam{Name: "W", Entries: []WeightEntry{{IsRange: true, Lo: 9, Hi: 2, Weight: 1}}},
		}}, "hi < lo"},
		{"bad range", &Template{Name: "t", Params: []Param{
			&RangeParam{Name: "R", Lo: 3, Hi: 1},
		}}, "hi < lo"},
	}
	for _, tc := range cases {
		t.Run(tc.name, func(t *testing.T) {
			err := tc.tmpl.Validate()
			if err == nil {
				t.Fatalf("Validate passed, want error containing %q", tc.want)
			}
			if !strings.Contains(err.Error(), tc.want) {
				t.Fatalf("error = %q, want substring %q", err, tc.want)
			}
		})
	}
	good, _ := Parse(lsuSource)
	if err := good.Validate(); err != nil {
		t.Fatalf("valid template rejected: %v", err)
	}
}

func TestAllZeroWeightsAreValid(t *testing.T) {
	tmpl, err := Parse("template t { weight W { a: 0; b: 0; } }")
	if err != nil {
		t.Fatal(err)
	}
	if err := tmpl.Validate(); err != nil {
		t.Fatalf("all-zero weight param should validate: %v", err)
	}
	for _, e := range tmpl.Weight("W").Entries {
		if e.Weight != 0 {
			t.Fatalf("entry %s weighs %d, want 0", e.Label(), e.Weight)
		}
	}
}

func TestParseFile(t *testing.T) {
	dir := t.TempDir()
	path := filepath.Join(dir, "lsu.tmpl")
	if err := os.WriteFile(path, []byte(lsuSource), 0o644); err != nil {
		t.Fatal(err)
	}
	tmpl, err := ParseFile(path)
	if err != nil {
		t.Fatal(err)
	}
	if tmpl.Name != "lsu_stress" {
		t.Fatalf("name = %q", tmpl.Name)
	}
	if _, err := ParseFile(filepath.Join(dir, "missing.tmpl")); err == nil {
		t.Fatal("ParseFile of missing file should error")
	}
	bad := filepath.Join(dir, "bad.tmpl")
	os.WriteFile(bad, []byte("nonsense"), 0o644)
	if _, err := ParseFile(bad); err == nil || !strings.Contains(err.Error(), "bad.tmpl") {
		t.Fatalf("ParseFile error should name the file, got %v", err)
	}
}
