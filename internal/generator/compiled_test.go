package generator

import (
	"fmt"
	"math"
	"math/rand"
	"reflect"
	"strings"
	"testing"
	"testing/quick"

	"repro/internal/rng"
	"repro/internal/template"
)

// interp is the per-decision interpreter the slot table replaced, kept
// as the test oracle: it resolves the parameter by name on every
// decision (template linear scan, then the defaults map), builds a
// weight slice per pick and draws through weightedIndex. The slot
// path must return the same decisions and leave the stream in the same
// state.
type interp struct {
	tmpl     *template.Template
	defaults Defaults
	r        *rng.RNG
}

func newInterp(tmpl *template.Template, defaults Defaults, seed uint64) *interp {
	return &interp{tmpl: tmpl, defaults: defaults, r: rng.New(seed)}
}

func (g *interp) RNG() *rng.RNG { return g.r }

func (g *interp) resolve(name string) (template.Param, bool) {
	if g.tmpl != nil {
		if p, ok := g.tmpl.Param(name); ok {
			return p, true
		}
	}
	p, ok := g.defaults[name]
	return p, ok
}

func (g *interp) Has(name string) bool {
	_, ok := g.resolve(name)
	return ok
}

func (g *interp) PickValue(name string) string {
	p, ok := g.resolve(name)
	if !ok {
		panic(fmt.Sprintf("generator: no setting or default for parameter %q", name))
	}
	wp, ok := p.(*template.WeightParam)
	if !ok {
		panic(fmt.Sprintf("generator: parameter %q is not a weight parameter", name))
	}
	return g.pickEntry(wp).Label()
}

func (g *interp) PickInt(name string) int {
	p, ok := g.resolve(name)
	if !ok {
		panic(fmt.Sprintf("generator: no setting or default for parameter %q", name))
	}
	switch param := p.(type) {
	case *template.RangeParam:
		return g.r.IntRange(param.Lo, param.Hi)
	case *template.WeightParam:
		e := g.pickEntry(param)
		if !e.IsRange {
			panic(fmt.Sprintf("generator: parameter %q has symbolic entries; use PickValue", name))
		}
		return g.r.IntRange(e.Lo, e.Hi)
	default:
		panic(fmt.Sprintf("generator: parameter %q has unknown type %T", name, p))
	}
}

func (g *interp) pickEntry(wp *template.WeightParam) template.WeightEntry {
	if len(wp.Entries) == 1 {
		return wp.Entries[0]
	}
	weights := make([]int, len(wp.Entries))
	for i, e := range wp.Entries {
		weights[i] = e.Weight
	}
	return wp.Entries[weightedIndex(g.r, weights)]
}

// weightedIndex picks an index in [0, len(weights)) with probability
// proportional to weights[i]. Negative weights are treated as zero. If
// all weights are zero it picks uniformly. It panics on an empty slice.
func weightedIndex(r *rng.RNG, weights []int) int {
	if len(weights) == 0 {
		panic("weightedIndex called with no weights")
	}
	total := 0
	for _, w := range weights {
		if w > 0 {
			total += w
		}
	}
	if total == 0 {
		return r.Intn(len(weights))
	}
	pick := r.Intn(total)
	for i, w := range weights {
		if w <= 0 {
			continue
		}
		if pick < w {
			return i
		}
		pick -= w
	}
	// Unreachable if total was computed consistently.
	return len(weights) - 1
}

func TestWeightedIndexDistribution(t *testing.T) {
	r := rng.New(37)
	weights := []int{10, 0, 30, 60}
	counts := make([]int, len(weights))
	const n = 100000
	for i := 0; i < n; i++ {
		counts[weightedIndex(r, weights)]++
	}
	if counts[1] != 0 {
		t.Fatalf("zero-weight index picked %d times", counts[1])
	}
	for i, w := range weights {
		if w == 0 {
			continue
		}
		want := float64(w) / 100
		got := float64(counts[i]) / n
		if math.Abs(got-want) > 0.01 {
			t.Errorf("index %d rate = %v, want ~%v", i, got, want)
		}
	}
}

func TestWeightedIndexAllZeroUniform(t *testing.T) {
	r := rng.New(41)
	counts := make([]int, 4)
	for i := 0; i < 40000; i++ {
		counts[weightedIndex(r, []int{0, 0, 0, 0})]++
	}
	for i, c := range counts {
		if c < 9000 || c > 11000 {
			t.Errorf("all-zero weights index %d picked %d times, want ~10000", i, c)
		}
	}
}

func TestWeightedIndexNegativeTreatedAsZero(t *testing.T) {
	r := rng.New(43)
	for i := 0; i < 1000; i++ {
		if idx := weightedIndex(r, []int{-5, 10, -1}); idx != 1 {
			t.Fatalf("negative weights should never be picked, got index %d", idx)
		}
	}
}

func TestWeightedIndexPanicsOnEmpty(t *testing.T) {
	defer func() {
		if recover() == nil {
			t.Fatal("weightedIndex(nil) should panic")
		}
	}()
	weightedIndex(rng.New(0), nil)
}

// equivTemplates exercises every decision kind the compiler handles:
// multi-entry symbolic weights, zero weights, subrange weights, plain
// ranges, single-entry parameters, and defaults fallback/override.
func equivTemplates(t *testing.T) []*template.Template {
	t.Helper()
	srcs := []string{
		`template mix {
		    weight Mnemonic { load: 40; store: 40; add: 0; mul: 20; }
		    range CacheDelay [3 : 77];
		}`,
		`template sub {
		    weight CacheDelay { [0:9]: 90; [10:100]: 10; }
		    weight Mode { fast: 1; slow: 3; }
		}`,
		`template zero { weight Mnemonic { load: 0; add: 0; mul: 0; } }`,
		`template single { weight Mnemonic { mul: 0; } range CacheDelay [5 : 5]; }`,
		`template sparse { range Unrelated [1 : 1000000]; }`,
	}
	out := make([]*template.Template, len(srcs))
	for i, src := range srcs {
		out[i] = mustParse(t, src)
	}
	return out
}

// drive makes the same decision sequence on the interpreter and on the
// slot path and fails on the first divergence, in a decision or in the
// stream state after it.
func drive(t *testing.T, name string, a *interp, b *Generator, rounds int) {
	t.Helper()
	sync := func(i int, param string) {
		t.Helper()
		if x, y := a.RNG().State(), b.RNG().State(); x != y {
			t.Fatalf("%s round %d: streams diverged after %s (%#x != %#x)", name, i, param, x, y)
		}
	}
	for i := 0; i < rounds; i++ {
		if a.Has("Mnemonic") {
			if x, y := a.PickValue("Mnemonic"), b.PickValue("Mnemonic"); x != y {
				t.Fatalf("%s round %d: Mnemonic %q != %q", name, i, x, y)
			}
			sync(i, "Mnemonic")
		}
		if a.Has("CacheDelay") {
			if x, y := a.PickInt("CacheDelay"), b.PickInt("CacheDelay"); x != y {
				t.Fatalf("%s round %d: CacheDelay %d != %d", name, i, x, y)
			}
			sync(i, "CacheDelay")
		}
		if a.Has("Mode") {
			if x, y := a.PickValue("Mode"), b.PickValue("Mode"); x != y {
				t.Fatalf("%s round %d: Mode %q != %q", name, i, x, y)
			}
			sync(i, "Mode")
		}
	}
}

func TestCompiledMatchesInterpreted(t *testing.T) {
	defaults := testDefaults(t)
	for _, tmpl := range equivTemplates(t) {
		plan := Compile(tmpl, defaults)
		if err := plan.Err(); err != nil {
			t.Fatal(err)
		}
		for seed := uint64(0); seed < 25; seed++ {
			drive(t, tmpl.Name, newInterp(tmpl, defaults, seed), NewFromPlan(plan, seed), 40)
		}
	}
}

func TestCompiledNilTemplateMatchesInterpreted(t *testing.T) {
	defaults := testDefaults(t)
	plan := Compile(nil, defaults)
	if plan.Template() != nil {
		t.Fatal("nil-template plan should report a nil template")
	}
	for seed := uint64(1); seed < 20; seed++ {
		drive(t, "defaults-only", newInterp(nil, defaults, seed), NewFromPlan(plan, seed), 40)
	}
}

// randomSetting draws one parameter setting. vocab nil asks for a
// numeric setting (a range, or subrange entries), otherwise for a
// non-empty subset of vocab in random order. Weight shapes cover the
// decision path's special cases: single entry, all-zero, interleaved
// zeros.
func randomSetting(r *rand.Rand, name string, vocab []string) template.Param {
	weight := func() int {
		if r.Intn(3) == 0 {
			return 0
		}
		return 1 + r.Intn(100)
	}
	if vocab == nil && r.Intn(2) == 0 {
		lo := r.Intn(200) - 100
		return &template.RangeParam{Name: name, Lo: lo, Hi: lo + r.Intn(50)}
	}
	wp := &template.WeightParam{Name: name}
	if vocab == nil {
		lo := r.Intn(200) - 100
		for n := 1 + r.Intn(5); n > 0; n-- {
			hi := lo + r.Intn(20)
			wp.Entries = append(wp.Entries, template.WeightEntry{IsRange: true, Lo: lo, Hi: hi, Weight: weight()})
			lo = hi + 1
		}
	} else {
		for _, i := range r.Perm(len(vocab))[:1+r.Intn(len(vocab))] {
			wp.Entries = append(wp.Entries, template.WeightEntry{Value: vocab[i], Weight: weight()})
		}
	}
	if r.Intn(5) == 0 {
		for i := range wp.Entries {
			wp.Entries[i].Weight = 0
		}
	}
	return wp
}

// TestSlotPathMatchesInterpreterQuick is the property behind the
// stream-consumption contract: for random templates over random
// defaults, decisions by handle, decisions by name and the interpreter
// agree on every decision and on the stream state after it.
func TestSlotPathMatchesInterpreterQuick(t *testing.T) {
	letters := []string{"a", "b", "c", "d", "e", "f"}
	property := func(shape int64, seed uint64) bool {
		r := rand.New(rand.NewSource(shape))
		defaults := Defaults{}
		vocabs := map[string][]string{}
		var names []string
		for i, n := 0, 1+r.Intn(5); i < n; i++ {
			name := fmt.Sprintf("P%d", r.Intn(1000))
			if _, dup := defaults[name]; dup {
				continue
			}
			names = append(names, name)
			if r.Intn(2) == 0 {
				vocabs[name] = letters[:2+r.Intn(5)]
				// A default lists its whole vocabulary.
				wp := &template.WeightParam{Name: name}
				for _, v := range vocabs[name] {
					wp.Entries = append(wp.Entries, template.WeightEntry{Value: v, Weight: r.Intn(3) * r.Intn(50)})
				}
				defaults[name] = wp
			} else {
				defaults[name] = randomSetting(r, name, nil)
			}
		}
		tmpl := template.New("quick")
		for _, name := range names {
			if r.Intn(2) == 0 {
				tmpl.SetParam(randomSetting(r, name, vocabs[name]))
			}
		}
		if r.Intn(2) == 0 { // a parameter only the template names
			name := "TemplateOnly"
			names = append(names, name)
			if r.Intn(2) == 0 {
				vocabs[name] = letters[:1+r.Intn(6)]
			}
			tmpl.SetParam(randomSetting(r, name, vocabs[name]))
		}

		plan := Compile(tmpl, defaults)
		if err := plan.Err(); err != nil {
			t.Errorf("shape %d: %v", shape, err)
			return false
		}
		bind := Bind(defaults)
		oracle := newInterp(tmpl, defaults, seed)
		byHandle, byName := NewFromPlan(plan, seed), NewFromPlan(plan, seed)
		for i := 0; i < 300; i++ {
			name := names[r.Intn(len(names))]
			_, isDefault := defaults[name]
			if vocab := vocabs[name]; vocab != nil {
				want := oracle.PickValue(name)
				if got := byName.PickValue(name); got != want {
					t.Errorf("shape %d decision %d: PickValue(%s) = %q, interpreter %q", shape, i, name, got, want)
					return false
				}
				if isDefault {
					if code := byHandle.Code(bind.Handle(name)); code != bind.Code(name, want) {
						t.Errorf("shape %d decision %d: Code(%s) = %d, interpreter %q", shape, i, name, code, want)
						return false
					}
				} else {
					byHandle.PickValue(name)
				}
			} else {
				want := oracle.PickInt(name)
				if got := byName.PickInt(name); got != want {
					t.Errorf("shape %d decision %d: PickInt(%s) = %d, interpreter %d", shape, i, name, got, want)
					return false
				}
				got := 0
				if isDefault {
					got = byHandle.Int(bind.Handle(name))
				} else {
					got = byHandle.PickInt(name)
				}
				if got != want {
					t.Errorf("shape %d decision %d: Int(%s) = %d, interpreter %d", shape, i, name, got, want)
					return false
				}
			}
			want := oracle.RNG().State()
			if byHandle.RNG().State() != want || byName.RNG().State() != want {
				t.Errorf("shape %d decision %d (%s): stream state diverged from the interpreter's", shape, i, name)
				return false
			}
		}
		return true
	}
	if err := quick.Check(property, &quick.Config{MaxCount: 300}); err != nil {
		t.Fatal(err)
	}
}

func TestSlotOrderIsSortedDefaultsThenTemplateOrder(t *testing.T) {
	defaults := testDefaults(t)
	tmpl := mustParse(t, `template t { range Zeta [1:2]; weight Mode { slow: 1; } range Alpha [3:4]; }`)
	var got []string
	for _, s := range Compile(tmpl, defaults).slots {
		got = append(got, s.name)
	}
	want := []string{"CacheDelay", "Mnemonic", "Mode", "Zeta", "Alpha"}
	if !reflect.DeepEqual(got, want) {
		t.Fatalf("slot order %v, want %v", got, want)
	}
	bind := Bind(defaults)
	for i, name := range want[:3] {
		if h := bind.Handle(name); int(h) != i {
			t.Errorf("Handle(%s) = %d, want %d", name, h, i)
		}
	}
}

func TestCodesFollowTheDefaultsNotTheTemplate(t *testing.T) {
	defaults := testDefaults(t)
	bind := Bind(defaults)
	h := bind.Handle("Mnemonic")
	for _, v := range []string{"load", "store", "add", "mul"} {
		// A single-entry template in any position decides that value.
		tmpl := mustParse(t, "template t { weight Mnemonic { "+v+": 3; } }")
		if got, want := New(tmpl, defaults, 1).Code(h), bind.Code("Mnemonic", v); got != want {
			t.Errorf("template {%s}: Code = %d, want %d", v, got, want)
		}
	}
	tmpl := mustParse(t, "template t { weight Mnemonic { mul: 0; store: 5; load: 0; } }")
	g := New(tmpl, defaults, 2)
	for i := 0; i < 100; i++ {
		if got := g.Code(h); got != bind.Code("Mnemonic", "store") {
			t.Fatalf("reordered template decided code %d", got)
		}
	}
}

func TestVocabularyIsTheDefaultEntryListInCodeOrder(t *testing.T) {
	bind := Bind(testDefaults(t))
	vocab := bind.Vocabulary("Mnemonic")
	if want := []string{"load", "store", "add", "mul"}; !reflect.DeepEqual(vocab, want) {
		t.Fatalf("Vocabulary(Mnemonic) = %v, want %v", vocab, want)
	}
	for code, v := range vocab {
		if got := bind.Code("Mnemonic", v); got != code {
			t.Errorf("Code(Mnemonic, %s) = %d, want %d", v, got, code)
		}
	}
}

// TestCheckRejectsAGeneratorOverOtherDefaults: handles index slots by
// position, so a generator compiled over defaults with another parameter
// set must not reach a unit's decision loop.
func TestCheckRejectsAGeneratorOverOtherDefaults(t *testing.T) {
	defaults := testDefaults(t)
	bind := Bind(defaults)
	bind.Check(New(nil, defaults, 1))
	bind.Check(New(mustParse(t, "template t { range Extra [1:2]; }"), defaults, 1)) // template-only parameters follow the defaults

	grown := Defaults{"Added": &template.RangeParam{Name: "Added", Lo: 0, Hi: 1}}
	for name, p := range defaults {
		grown[name] = p
	}
	defer func() {
		msg, _ := recover().(string)
		if !strings.Contains(msg, "Added") {
			t.Errorf("Check over grown defaults: panic %q, want one listing the parameters", msg)
		}
	}()
	bind.Check(New(nil, grown, 1))
}

func TestBindingPanicsOnUnknownNames(t *testing.T) {
	bind := Bind(testDefaults(t))
	for name, f := range map[string]func(){
		"unknown parameter":           func() { bind.Handle("Missing") },
		"unknown value":               func() { bind.Code("Mnemonic", "div") },
		"value of a range param":      func() { bind.Code("CacheDelay", "x") },
		"vocabulary of a range param": func() { bind.Vocabulary("CacheDelay") },
	} {
		func() {
			defer func() {
				if recover() == nil {
					t.Errorf("%s should panic at bind time", name)
				}
			}()
			f()
		}()
	}
}

// TestPlanErrors: what a template may not say about a parameter the
// unit declared a default for, and malformed settings anywhere. Each of
// these used to reach the decision loop as a false coverage hit or a
// panic.
func TestPlanErrors(t *testing.T) {
	defaults := testDefaults(t)
	for _, tc := range []struct {
		name, want string
		tmpl       *template.Template
	}{
		{"out of vocabulary", `value "div" is not one of [load store add mul]`,
			mustParse(t, "template t { weight Mnemonic { load: 1; div: 1; } }")},
		{"symbolic over a range default", `value "fast" overrides a numeric default`,
			mustParse(t, "template t { weight CacheDelay { fast: 1; } }")},
		{"range over a symbolic default", "[0:3] overrides a symbolic default",
			mustParse(t, "template t { range Mode [0:3]; }")},
		{"subrange over a symbolic default", "[0:3] overrides a symbolic default",
			mustParse(t, "template t { weight Mode { fast: 1; [0:3]: 1; } }")},
		{"empty weight parameter", "no entries",
			&template.Template{Name: "t", Params: []template.Param{&template.WeightParam{Name: "New"}}}},
		{"inverted range", "[5:1] is not a range",
			&template.Template{Name: "t", Params: []template.Param{&template.RangeParam{Name: "CacheDelay", Lo: 5, Hi: 1}}}},
		{"inverted subrange", "[9:2] is not a range",
			&template.Template{Name: "t", Params: []template.Param{&template.WeightParam{Name: "New",
				Entries: []template.WeightEntry{{IsRange: true, Lo: 9, Hi: 2, Weight: 1}}}}}},
	} {
		err := Compile(tc.tmpl, defaults).Err()
		if err == nil || !strings.Contains(err.Error(), tc.want) {
			t.Errorf("%s: Err() = %v, want it to mention %q", tc.name, err, tc.want)
		}
	}
	// The skeleton's output form stays legal: subranges over a range default.
	if err := Compile(mustParse(t, "template t { weight CacheDelay { [0:9]: 1; [10:100]: 0; } }"), defaults).Err(); err != nil {
		t.Errorf("subranges over a range default: %v", err)
	}
	// A generator must not be built over a plan that carries an error.
	defer func() {
		if recover() == nil {
			t.Error("NewFromPlan on an invalid plan should panic")
		}
	}()
	NewFromPlan(Compile(mustParse(t, "template t { range Mode [0:3]; }"), defaults), 0)
}

// TestMixedTemplateOnlyParameterByName: a parameter only the template
// names may mix symbolic and subrange entries; PickValue labels both,
// like the interpreter, and PickInt refuses it.
func TestMixedTemplateOnlyParameterByName(t *testing.T) {
	tmpl := mustParse(t, "template t { weight Extra { [0:9]: 2; on: 1; [10:20]: 0; off: 3; } }")
	defaults := testDefaults(t)
	oracle, g := newInterp(tmpl, defaults, 4), New(tmpl, defaults, 4)
	seen := map[string]bool{}
	for i := 0; i < 200; i++ {
		want := oracle.PickValue("Extra")
		if got := g.PickValue("Extra"); got != want || g.RNG().State() != oracle.RNG().State() {
			t.Fatalf("decision %d: %q, interpreter %q", i, got, want)
		}
		seen[want] = true
	}
	if !seen["[0:9]"] || !seen["on"] || !seen["off"] || seen["[10:20]"] {
		t.Fatalf("labels seen: %v", seen)
	}
	defer func() {
		if recover() == nil {
			t.Error("PickInt on a parameter with symbolic entries should panic")
		}
	}()
	g.PickInt("Extra")
}

func TestResetEqualsNewFromPlan(t *testing.T) {
	plan := Compile(equivTemplates(t)[0], testDefaults(t))
	g := NewFromPlan(plan, 1)
	for i := 0; i < 10; i++ {
		g.PickValue("Mnemonic")
	}
	g.Reset(77)
	fresh := NewFromPlan(plan, 77)
	if g.Seed() != 77 || g.RNG().State() != fresh.RNG().State() {
		t.Fatal("Reset did not rewind the generator to the new instance")
	}
	for i := 0; i < 50; i++ {
		if g.PickValue("Mnemonic") != fresh.PickValue("Mnemonic") || g.PickInt("CacheDelay") != fresh.PickInt("CacheDelay") {
			t.Fatalf("decision %d differs after Reset", i)
		}
	}
}

func TestDecisionsDoNotAllocate(t *testing.T) {
	defaults := testDefaults(t)
	bind := Bind(defaults)
	hM, hD := bind.Handle("Mnemonic"), bind.Handle("CacheDelay")
	g := NewFromPlan(Compile(equivTemplates(t)[1], defaults), 5)
	if n := testing.AllocsPerRun(200, func() {
		g.Code(hM)
		g.Int(hD)
		g.PickValue("Mnemonic")
		g.PickInt("CacheDelay")
	}); n != 0 {
		t.Fatalf("decisions allocate %v times per run", n)
	}
}

func TestCompiledSingleEntryConsumesNoRandomness(t *testing.T) {
	tmpl := mustParse(t, "template t { weight W { only: 0; } }")
	g := NewFromPlan(Compile(tmpl, nil), 17)
	if v := g.PickValue("W"); v != "only" {
		t.Fatalf("pick = %q", v)
	}
	// The stream must be untouched: the next draw equals a fresh
	// generator's first draw.
	if g.RNG().Uint64() != NewFromPlan(Compile(tmpl, nil), 17).RNG().Uint64() {
		t.Fatal("single-entry pick consumed randomness")
	}
}

func TestCompiledAllZeroWeightsUniform(t *testing.T) {
	tmpl := mustParse(t, "template t { weight W { a: 0; b: 0; } }")
	g := NewFromPlan(Compile(tmpl, nil), 7)
	seen := map[string]int{}
	for i := 0; i < 2000; i++ {
		seen[g.PickValue("W")]++
	}
	if seen["a"] < 800 || seen["b"] < 800 {
		t.Fatalf("all-zero weights not uniform on the compiled path: %v", seen)
	}
}

func TestPlanImmuneToTemplateMutation(t *testing.T) {
	tmpl := mustParse(t, "template t { weight W { a: 100; b: 0; } }")
	plan := Compile(tmpl, nil)
	tmpl.Weight("W").Entries[0].Weight = 0
	tmpl.Weight("W").Entries[1].Weight = 100
	g := NewFromPlan(plan, 3)
	for i := 0; i < 200; i++ {
		if v := g.PickValue("W"); v != "a" {
			t.Fatalf("plan saw a post-compile template mutation: picked %q", v)
		}
	}
}

func TestPlanHas(t *testing.T) {
	tmpl := mustParse(t, "template t { range R [1:2]; }")
	plan := Compile(tmpl, testDefaults(t))
	if !plan.Has("R") || !plan.Has("Mnemonic") {
		t.Fatal("plan should cover both template and default params")
	}
	if plan.Has("NoSuch") {
		t.Fatal("plan should not cover unknown params")
	}
	g := NewFromPlan(plan, 0)
	if !g.Has("R") || !g.Has("Mnemonic") || g.Has("NoSuch") {
		t.Fatal("plan-backed generator Has disagrees with plan")
	}
}

func TestCompiledPanicsMatchInterpreted(t *testing.T) {
	defaults := testDefaults(t)
	bind := Bind(defaults)
	g := NewFromPlan(Compile(nil, defaults), 0)
	o := newInterp(nil, defaults, 0)
	panics := func(f func()) (panicked bool) {
		defer func() { panicked = recover() != nil }()
		f()
		return
	}
	for name, pair := range map[string][2]func(){
		"unknown PickValue":          {func() { g.PickValue("Missing") }, func() { o.PickValue("Missing") }},
		"unknown PickInt":            {func() { g.PickInt("Missing") }, func() { o.PickInt("Missing") }},
		"PickValue on range":         {func() { g.PickValue("CacheDelay") }, func() { o.PickValue("CacheDelay") }},
		"PickInt on symbolic weight": {func() { g.PickInt("Mnemonic") }, func() { o.PickInt("Mnemonic") }},
		"Code on range":              {func() { g.Code(bind.Handle("CacheDelay")) }, func() { o.PickValue("CacheDelay") }},
		"Int on symbolic weight":     {func() { g.Int(bind.Handle("Mnemonic")) }, func() { o.PickInt("Mnemonic") }},
	} {
		if !panics(pair[0]) || !panics(pair[1]) {
			t.Errorf("%s should panic on the slot path and in the interpreter", name)
		}
	}
}
