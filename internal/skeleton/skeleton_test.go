package skeleton

import (
	"math"
	"strings"
	"testing"
	"testing/quick"

	"repro/internal/rng"
	"repro/internal/template"
)

const lsuSource = `
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

func mustParse(t *testing.T, src string) *template.Template {
	t.Helper()
	tmpl, err := template.Parse(src)
	if err != nil {
		t.Fatal(err)
	}
	return tmpl
}

func TestSkeletonizeLSU(t *testing.T) {
	s, err := Skeletonize(mustParse(t, lsuSource), Options{Subranges: 3})
	if err != nil {
		t.Fatal(err)
	}
	// Mnemonic: load, store, mul marked (add: 0 NOT marked, per Fig 1(b)).
	// CacheDelay: 3 subranges, all marked.
	if s.Dim() != 6 {
		t.Fatalf("Dim = %d, want 6; slots = %v", s.Dim(), s.Slots())
	}
	slots := s.Slots()
	wantLabels := []string{"load", "store", "mul"}
	for i, l := range wantLabels {
		if slots[i].Param != "Mnemonic" || slots[i].Label != l || slots[i].Kind != SlotWeight {
			t.Fatalf("slot %d = %+v, want Mnemonic/%s", i, slots[i], l)
		}
	}
	for i := 3; i < 6; i++ {
		if slots[i].Param != "CacheDelay" || slots[i].Kind != SlotSubrange {
			t.Fatalf("slot %d = %+v, want CacheDelay subrange", i, slots[i])
		}
	}
	// Subranges cover [0,100] without gaps or overlap.
	wp := s.Base().Weight("CacheDelay")
	if wp == nil {
		t.Fatal("CacheDelay not converted to weight param")
	}
	lo := 0
	for _, e := range wp.Entries {
		if !e.IsRange {
			t.Fatalf("CacheDelay entry not a subrange: %+v", e)
		}
		if e.Lo != lo {
			t.Fatalf("subrange gap: starts at %d, want %d", e.Lo, lo)
		}
		lo = e.Hi + 1
	}
	if lo != 101 {
		t.Fatalf("subranges end at %d, want 101", lo)
	}
}

func TestSkeletonizeRejectsUnmodifiable(t *testing.T) {
	// A template whose only weight entries are zero yields no slots.
	tmpl := mustParse(t, "template t { weight W { a: 0; } }")
	if _, err := Skeletonize(tmpl, Options{}); err == nil {
		t.Fatal("expected error for template with no modifiable settings")
	}
}

func TestSkeletonizeRejectsInvalid(t *testing.T) {
	bad := &template.Template{} // no name
	if _, err := Skeletonize(bad, Options{}); err == nil {
		t.Fatal("expected validation error")
	}
}

func TestSplitLinear(t *testing.T) {
	subs := split(0, 99, 4)
	if len(subs) != 4 {
		t.Fatalf("subs = %v", subs)
	}
	want := [][2]int{{0, 24}, {25, 49}, {50, 74}, {75, 99}}
	for i := range want {
		if subs[i] != want[i] {
			t.Fatalf("subs[%d] = %v, want %v", i, subs[i], want[i])
		}
	}
}

func TestSplitNarrowRange(t *testing.T) {
	// Range narrower than requested subrange count: one subrange per value.
	subs := split(5, 7, 8)
	if len(subs) != 3 {
		t.Fatalf("subs = %v", subs)
	}
	for i, s := range subs {
		if s[0] != 5+i || s[1] != 5+i {
			t.Fatalf("subs[%d] = %v", i, s)
		}
	}
}

func TestSplitSingleValue(t *testing.T) {
	subs := split(9, 9, 4)
	if len(subs) != 1 || subs[0] != [2]int{9, 9} {
		t.Fatalf("subs = %v", subs)
	}
}

func TestSplitPropertyCoverage(t *testing.T) {
	f := func(seed uint64) bool {
		r := rng.New(seed)
		lo := r.Intn(200) - 100
		width := 1 + r.Intn(500)
		hi := lo + width - 1
		k := 1 + r.Intn(10)
		subs := split(lo, hi, k)
		if len(subs) == 0 || len(subs) > k {
			return false
		}
		at := lo
		for _, s := range subs {
			if s[0] != at || s[1] < s[0] {
				return false
			}
			at = s[1] + 1
		}
		return at == hi+1
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 500}); err != nil {
		t.Fatal(err)
	}
}

func TestInstantiate(t *testing.T) {
	s, err := Skeletonize(mustParse(t, lsuSource), Options{Subranges: 3})
	if err != nil {
		t.Fatal(err)
	}
	weights := []float64{90, 10, 0, 70, 20, 10}
	tmpl, err := s.Instantiate("cand_1", weights)
	if err != nil {
		t.Fatal(err)
	}
	if tmpl.Name != "cand_1" {
		t.Fatalf("name = %q", tmpl.Name)
	}
	wp := tmpl.Weight("Mnemonic")
	if e, _ := wp.Entry("load"); e.Weight != 90 {
		t.Fatalf("load = %d", e.Weight)
	}
	if e, _ := wp.Entry("add"); e.Weight != 0 {
		t.Fatalf("unmarked add changed: %d", e.Weight)
	}
	if e, _ := wp.Entry("mul"); e.Weight != 0 {
		t.Fatalf("mul = %d", e.Weight)
	}
	cd := tmpl.Weight("CacheDelay")
	if cd == nil || len(cd.Entries) != 3 {
		t.Fatalf("CacheDelay = %+v", cd)
	}
	if cd.Entries[0].Weight != 70 {
		t.Fatalf("first subrange weight = %d", cd.Entries[0].Weight)
	}
	if err := tmpl.Validate(); err != nil {
		t.Fatal(err)
	}
}

func TestInstantiateClampsAndRounds(t *testing.T) {
	s, _ := Skeletonize(mustParse(t, lsuSource), Options{Subranges: 2})
	tmpl, err := s.Instantiate("c", []float64{150, -20, 49.6, 0.4, 100})
	if err != nil {
		t.Fatal(err)
	}
	wp := tmpl.Weight("Mnemonic")
	if e, _ := wp.Entry("load"); e.Weight != 100 {
		t.Fatalf("load = %d, want clamp to 100", e.Weight)
	}
	if e, _ := wp.Entry("store"); e.Weight != 0 {
		t.Fatalf("store = %d, want clamp to 0", e.Weight)
	}
	if e, _ := wp.Entry("mul"); e.Weight != 50 {
		t.Fatalf("mul = %d, want round to 50", e.Weight)
	}
}

func TestInstantiateDimensionMismatch(t *testing.T) {
	s, _ := Skeletonize(mustParse(t, lsuSource), Options{})
	if _, err := s.Instantiate("c", []float64{1, 2}); err == nil {
		t.Fatal("dimension mismatch should fail")
	}
}

func TestInstantiateRevivesAllZeroParam(t *testing.T) {
	s, _ := Skeletonize(mustParse(t, lsuSource), Options{Subranges: 2})
	// All Mnemonic slots zero; CacheDelay second subrange nonzero.
	tmpl, err := s.Instantiate("c", []float64{0, 0.4, 0.2, 0, 50})
	if err != nil {
		t.Fatal(err)
	}
	wp := tmpl.Weight("Mnemonic")
	// The largest raw weight (store = 0.4) must be revived to 1; the
	// zero-weight "add" must stay excluded.
	if e, _ := wp.Entry("store"); e.Weight != 1 {
		t.Fatalf("store = %d, want revived to 1", e.Weight)
	}
	if e, _ := wp.Entry("add"); e.Weight != 0 {
		t.Fatalf("add = %d, must stay 0", e.Weight)
	}
	if e, _ := wp.Entry("load"); e.Weight != 0 {
		t.Fatalf("load = %d", e.Weight)
	}
}

// TestInstantiateRefusesNaN: a NaN weight has no place in the box, so
// it is refused, naming the slot, instead of rounding to an integer
// weight that no template can carry.
func TestInstantiateRefusesNaN(t *testing.T) {
	s, _ := Skeletonize(mustParse(t, lsuSource), Options{Subranges: 2})
	_, err := s.Instantiate("c", []float64{10, 20, 30, math.NaN(), 5})
	if err == nil || !strings.Contains(err.Error(), "weight 3 (CacheDelay [0:49]) is NaN") {
		t.Fatalf("err = %v, want the NaN slot named", err)
	}
}

func TestPropertyInstantiateAlwaysValid(t *testing.T) {
	s, err := Skeletonize(mustParse(t, lsuSource), Options{Subranges: 4})
	if err != nil {
		t.Fatal(err)
	}
	f := func(seed uint64) bool {
		r := rng.New(seed)
		x := make([]float64, s.Dim())
		for i := range x {
			// Deliberately out-of-box values to exercise clamping.
			x[i] = (r.Float64() - 0.25) * 300
		}
		tmpl, err := s.Instantiate("p", x)
		if err != nil {
			return false
		}
		if tmpl.Validate() != nil {
			return false
		}
		// Every weight param with marked entries has at least one
		// positive weight among its marked entries.
		for _, p := range tmpl.Params {
			wp, ok := p.(*template.WeightParam)
			if !ok {
				return false // skeleton templates only contain weight params
			}
			anyMarked, anyPositive := false, false
			for _, sl := range s.Slots() {
				if sl.Param != wp.Name {
					continue
				}
				anyMarked = true
				if e, ok := wp.Entry(sl.Label); ok && e.Weight > 0 {
					anyPositive = true
				}
			}
			if anyMarked && !anyPositive {
				return false
			}
		}
		return true
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 300}); err != nil {
		t.Fatal(err)
	}
}

func TestWeightsRoundTrip(t *testing.T) {
	s, _ := Skeletonize(mustParse(t, lsuSource), Options{Subranges: 3})
	x := []float64{10, 20, 30, 40, 50, 60}
	tmpl, err := s.Instantiate("c", x)
	if err != nil {
		t.Fatal(err)
	}
	got, err := s.Weights(tmpl)
	if err != nil {
		t.Fatal(err)
	}
	for i := range x {
		if got[i] != x[i] {
			t.Fatalf("weights[%d] = %v, want %v", i, got[i], x[i])
		}
	}
}

func TestWeightsErrors(t *testing.T) {
	s, _ := Skeletonize(mustParse(t, lsuSource), Options{})
	other := mustParse(t, "template o { weight X { a: 1; } }")
	if _, err := s.Weights(other); err == nil {
		t.Fatal("Weights of unrelated template should fail")
	}
	missingEntry := mustParse(t, `
template o {
    weight Mnemonic { other: 1; }
    weight CacheDelay { [0:100]: 1; }
}
`)
	if _, err := s.Weights(missingEntry); err == nil {
		t.Fatal("Weights with missing entry should fail")
	}
}

func TestRandomWeightsInBox(t *testing.T) {
	s, _ := Skeletonize(mustParse(t, lsuSource), Options{})
	r := rng.New(3)
	for trial := 0; trial < 100; trial++ {
		x := s.RandomWeights(r)
		if len(x) != s.Dim() {
			t.Fatalf("len = %d", len(x))
		}
		for _, v := range x {
			if v < 0 || v >= 100 {
				t.Fatalf("weight %v out of [0,100)", v)
			}
		}
	}
}

func TestMarkedSource(t *testing.T) {
	s, _ := Skeletonize(mustParse(t, lsuSource), Options{Subranges: 3})
	src := s.MarkedSource()
	if !strings.Contains(src, "load:") || !strings.Contains(src, "<?>") {
		t.Fatalf("marked source missing marks:\n%s", src)
	}
	// "add: 0;" must appear unmarked.
	if !strings.Contains(src, "add:") {
		t.Fatalf("add entry missing:\n%s", src)
	}
	if strings.Count(src, "<?>") != s.Dim() {
		t.Fatalf("marks = %d, want %d:\n%s", strings.Count(src, "<?>"), s.Dim(), src)
	}
	// With each mark read as 0 the marked source parses, and its marked
	// entries, in order, are the slot list.
	tmpl, err := template.Parse(strings.ReplaceAll(src, "<?>", "0"))
	if err != nil {
		t.Fatalf("marked source does not parse: %v\n%s", err, src)
	}
	if tmpl.Name != s.Base().Name {
		t.Fatalf("name = %q", tmpl.Name)
	}
	var marked []Slot
	param := ""
	for _, line := range strings.Split(src, "\n") {
		line = strings.TrimSpace(line)
		if f := strings.Fields(line); len(f) == 3 && f[0] == "weight" {
			param = f[1]
		}
		if entry, ok := strings.CutSuffix(line, "<?>;"); ok {
			label := strings.TrimSuffix(strings.TrimSpace(entry), ":")
			if wp := tmpl.Weight(param); wp == nil {
				t.Fatalf("marked entry %s %s: no weight %s in the parsed template", param, label, param)
			} else if e, ok := wp.Entry(label); !ok || e.Weight != 0 {
				t.Fatalf("marked entry %s %s = %+v (found %v), want weight 0", param, label, e, ok)
			}
			marked = append(marked, Slot{Param: param, Label: label})
		}
	}
	if len(marked) != s.Dim() {
		t.Fatalf("parsed %d marks, want %d", len(marked), s.Dim())
	}
	for i, m := range marked {
		if m.Param != s.Slots()[i].Param || m.Label != s.Slots()[i].Label {
			t.Fatalf("mark %d = %+v, want %+v", i, m, s.Slots()[i])
		}
	}
}

func TestDefaultsApplied(t *testing.T) {
	s, err := Skeletonize(mustParse(t, lsuSource), Options{})
	if err != nil {
		t.Fatal(err)
	}
	if s.Options().Subranges != 4 {
		t.Fatalf("defaults = %+v", s.Options())
	}
	if s.MaxWeight() != 100 {
		t.Fatalf("MaxWeight = %d", s.MaxWeight())
	}
}
