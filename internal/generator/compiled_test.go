package generator

import (
	"fmt"
	"math"
	"math/rand"
	"reflect"
	"slices"
	"strings"
	"sync"
	"testing"
	"testing/quick"

	"repro/internal/rng"
	"repro/internal/template"
)

// decide and decideInt are a unit's decisions by handle, without the
// hoist: the decider is fetched anew for every decision.
func (g *Generator) decide(h Handle) int {
	c := g.Choice(h)
	return c.Code(&g.r)
}

func (g *Generator) decideInt(h Handle) int {
	d := g.Ranges(h)
	return d.Pick(&g.r).Int(&g.r)
}

// walked is the plain threshold walk, no table: the index, among the
// slot's selectable entries, of the one its draw selects.
func (s *slot) walked(r *rng.RNG) int {
	w, i := r.Word(s.step), 0
	for w > s.last[i] {
		i++
	}
	return i
}

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
	return scanWeights(r.Intn(total), weights)
}

// scanWeights is the cumulative-weight scan: the index draw pick of
// [0, total) selects.
func scanWeights(pick int, weights []int) int {
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
		`template sparse { range CacheDelay [1 : 1000000]; }`,
	}
	out := make([]*template.Template, len(srcs))
	for i, src := range srcs {
		out[i] = mustParse(t, src)
	}
	return out
}

// TestBindingPlansMatchFreshCompiles: one binding serves every plan of
// an environment, compiled in any order and from several goroutines at
// once — a default first only checked under an override and later
// decided by itself included — and each plan is the one a fresh
// Compile of its template gives.
func TestBindingPlansMatchFreshCompiles(t *testing.T) {
	defaults := testDefaults(t)
	tmpls := append(equivTemplates(t), nil, mustParse(t, "template bad { weight Mnemonic { load: 1; jump: 1; } }"))
	check := func(bind *Binding, tmpl *template.Template) {
		got, want := bind.Compile(tmpl), Compile(tmpl, defaults)
		if !reflect.DeepEqual(got.slots, want.slots) || fmt.Sprint(got.err) != fmt.Sprint(want.err) {
			t.Errorf("template %v: the binding's plan differs from a fresh compile (err %v, want %v)", tmpl, got.err, want.err)
		}
	}
	seq := Bind(defaults)
	for _, tmpl := range tmpls {
		check(seq, tmpl)
	}
	shared := Bind(defaults)
	var wg sync.WaitGroup
	for w := 0; w < 8; w++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for i := range tmpls {
				check(shared, tmpls[(i+w)%len(tmpls)])
			}
		}()
	}
	wg.Wait()
}

func TestCompiledMatchesInterpreted(t *testing.T) {
	defaults := testDefaults(t)
	for _, tmpl := range equivTemplates(t) {
		for seed := uint64(0); seed < 25; seed++ {
			if err := CheckDecisions(t, tmpl, defaults, seed, 40); err != nil {
				t.Fatal(err)
			}
		}
	}
}

func TestCompiledNilTemplateMatchesInterpreted(t *testing.T) {
	defaults := testDefaults(t)
	if Compile(nil, defaults).Template() != nil {
		t.Fatal("nil-template plan should report a nil template")
	}
	for seed := uint64(1); seed < 20; seed++ {
		if err := CheckDecisions(t, nil, defaults, seed, 40); err != nil {
			t.Fatal(err)
		}
	}
}

// randomSetting draws one parameter setting. vocab nil asks for a
// numeric setting (a range, or subrange entries), otherwise for a
// non-empty subset of vocab in random order. Weight shapes cover the
// decision path's special cases: single entry, all-zero, interleaved and
// leading zeros, one positive weight among zeros, totals far above any
// table one could index by Intn(total), and a total of exactly 1<<32.
func randomSetting(r *rand.Rand, name string, vocab []string) template.Param {
	weight := func() int {
		switch r.Intn(6) {
		case 0, 1:
			return 0
		case 2:
			return 1 + r.Intn(1<<20)
		default:
			return 1 + r.Intn(100)
		}
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
	switch r.Intn(10) {
	case 0, 1: // all zero
		for i := range wp.Entries {
			wp.Entries[i].Weight = 0
		}
	case 2: // one positive weight among zeros
		keep := r.Intn(len(wp.Entries))
		for i := range wp.Entries {
			if i != keep {
				wp.Entries[i].Weight = 0
			}
		}
	case 3: // a leading zero
		wp.Entries[0].Weight = 0
	case 4: // a total of exactly 1<<32
		fill := r.Intn(len(wp.Entries))
		wp.Entries[fill].Weight = 0
		rest := 0
		for _, e := range wp.Entries {
			rest += e.Weight
		}
		wp.Entries[fill].Weight = 1<<32 - rest
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
			if vocabs[name] != nil {
				want := oracle.PickValue(name)
				if got := byName.PickValue(name); got != want {
					t.Errorf("shape %d decision %d: PickValue(%s) = %q, interpreter %q", shape, i, name, got, want)
					return false
				}
				if code := byHandle.decide(bind.Handle(name)); code != bind.Code(name, want) {
					t.Errorf("shape %d decision %d: Code(%s) = %d, interpreter %q", shape, i, name, code, want)
					return false
				}
			} else {
				want := oracle.PickInt(name)
				if got := byName.PickInt(name); got != want {
					t.Errorf("shape %d decision %d: PickInt(%s) = %d, interpreter %d", shape, i, name, got, want)
					return false
				}
				if got := byHandle.decideInt(bind.Handle(name)); got != want {
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

// CheckDecisions compiles tmpl over defaults and, if the plan is valid,
// checks that every parameter the template names is one the defaults
// declare, then makes n decisions on every slot — alternately by handle
// and by name — against the interpreter: equal decisions, equal stream
// state after each, every decision through a table equal to the plain
// threshold walk's, every Int inside the subrange its draw chose, every
// Code inside the vocabulary, and one slot with a table per parameter of
// the defaults. It returns the plan's error. Exported because
// FuzzCompileDecide lives in the external test package (fuzz_test.go):
// it imports the units, which import this package.
func CheckDecisions(t *testing.T, tmpl *template.Template, defaults Defaults, seed uint64, n int) error {
	t.Helper()
	plan := Compile(tmpl, defaults)
	if plan.Err() != nil {
		return plan.Err()
	}
	if tmpl != nil {
		for _, p := range tmpl.Params {
			if _, ok := defaults[p.ParamName()]; !ok {
				t.Fatalf("%s: a valid plan for a template that names a parameter the defaults do not declare", p.ParamName())
			}
		}
	}
	if len(plan.slots) != len(defaults) {
		t.Fatalf("%d slots for %d parameters of the defaults", len(plan.slots), len(defaults))
	}
	oracle, g := newInterp(tmpl, defaults, seed), NewFromPlan(plan, seed)
	for i, name := range plan.names {
		s := &plan.slots[i]
		if s.table == nil {
			t.Fatalf("%s: no table", name)
		}
		for d := 0; d < n; d++ {
			before := g.r
			walked := s.walked(&before)
			byName := d%2 == 1
			if s.symbolic {
				want, code := oracle.PickValue(name), 0
				if byName {
					code = slices.Index(s.vocab, g.PickValue(name))
				} else {
					code = g.decide(Handle(i))
				}
				if code < 0 || code >= len(s.vocab) || s.vocab[code] != want || code != s.codes[walked] {
					t.Fatalf("%s decision %d: code %d of %v, interpreter %q, walk chose code %d", name, d, code, s.vocab, want, s.codes[walked])
				}
			} else {
				want, got := oracle.PickInt(name), 0
				if byName {
					got = g.PickInt(name)
				} else {
					got = g.decideInt(Handle(i))
				}
				if x := s.ranges[walked]; got != want || got < x.lo || uint64(got-x.lo) >= x.span {
					t.Fatalf("%s decision %d: %d, interpreter %d, walk chose [%d:+%d]", name, d, got, want, x.lo, x.span)
				}
			}
			if g.r.State() != oracle.RNG().State() {
				t.Fatalf("%s decision %d: stream state diverged from the interpreter's", name, d)
			}
		}
	}
	return nil
}

// TestDrawTableMatchesInterpreterAtTheEdges walks the boundaries of the
// threshold form: totals no table indexed by Intn(total) could hold, up
// to Intn's own bound; zero weights in every position; the uniform
// fallback of an all-zero slot; the single entry that draws nothing;
// more entries, and higher codes, than a table byte can name; thresholds
// exactly on a bucket edge. Every shape is checked two ways, symbolic
// and numeric: as the unit's defaults, and as a template over them
// (codes then differ from entry indices):
//   - 4,096 decisions against the interpreter (CheckDecisions);
//   - every threshold against the contract's own arithmetic: the last
//     draw word of an entry, and the word after it, scaled and scanned
//     as Intn and the interpreter do;
//   - every bucket of every table: the decision of its draws if the
//     first and the last of them agree and it fits under the marker,
//     else the marker.
func TestDrawTableMatchesInterpreterAtTheEdges(t *testing.T) {
	flat := func(n, w int) []int {
		ws := make([]int, n)
		for i := range ws {
			ws[i] = w
		}
		return ws
	}
	for _, tc := range []struct {
		name    string
		weights []int
		cut     int // table buckets a threshold cuts; -1: not pinned
	}{
		{"total 4097", []int{1, 4096}, 1},
		{"total far above 4096, two thresholds in one bucket", []int{5000, 3, 70000, 1 << 20}, 2},
		{"total at Intn's bound", []int{1 << 31, 1 << 31}, 0},
		{"total at Intn's bound, one draw word for the first entry", []int{1, 1<<32 - 1}, 1},
		{"total at Intn's bound, one draw word for the last entry", []int{1<<32 - 1, 1}, 1},
		{"one weight at Intn's bound", []int{0, 1 << 32, 0}, 0},
		{"zero weight first", []int{0, 3, 5}, 0},
		{"zero weight in the middle", []int{3, 0, 5}, 0},
		{"zero weight last", []int{3, 5, 0}, 0},
		{"zero weights around every entry", []int{0, 0, 4, 0, 0, 1, 0}, 1},
		{"one positive weight among zeros", []int{0, 0, 9, 0}, 0},
		{"all zero, 2 entries", flat(2, 0), 0},
		{"all zero, 5 entries", flat(5, 0), 4},
		{"all zero, 256 entries", flat(256, 0), -1},
		{"all zero, 300 entries", flat(300, 0), -1},
		{"254 entries", flat(254, 3), -1},
		{"255 entries", flat(255, 3), -1},
		{"256 entries", flat(256, 3), -1},
		{"257 entries", flat(257, 3), -1},
		{"threshold on a bucket edge, 128:128", []int{128, 128}, 0},
		{"threshold on a bucket edge, 1:255", []int{1, 255}, 0},
		{"threshold one bucket in, 1:256", []int{1, 256}, 1},
		{"every threshold on a bucket edge", flat(64, 7), 0},
		{"single entry", []int{7}, 0},
		{"single zero entry", []int{0}, 0},
	} {
		symbolic, numeric := &template.WeightParam{Name: "S"}, &template.WeightParam{Name: "N"}
		total := 0
		for i, w := range tc.weights {
			symbolic.Entries = append(symbolic.Entries, template.WeightEntry{Value: fmt.Sprintf("v%d", i), Weight: w})
			numeric.Entries = append(numeric.Entries, template.WeightEntry{IsRange: true, Lo: 10 * i, Hi: 10*i + 6, Weight: w})
			total += w
		}
		// entryAt is the contract: the entry the draw word w selects.
		entryAt := func(w uint32) int {
			if total == 0 {
				return int(uint64(w) * uint64(len(tc.weights)) >> 32)
			}
			return scanWeights(int(uint64(w)*uint64(total)>>32), tc.weights)
		}
		asTemplate := &template.Template{Name: "t", Params: []template.Param{symbolic, numeric}}
		vocabulary := &template.WeightParam{Name: "S"} // the same values, reversed
		for i := len(symbolic.Entries) - 1; i >= 0; i-- {
			vocabulary.Entries = append(vocabulary.Entries, template.WeightEntry{Value: symbolic.Entries[i].Value, Weight: 1})
		}
		for _, c := range []struct {
			how      string
			tmpl     *template.Template
			defaults Defaults
		}{
			{"as the defaults", nil, Defaults{"S": symbolic, "N": numeric}},
			{"as a template over defaults", asTemplate, Defaults{"S": vocabulary, "N": &template.RangeParam{Name: "N", Lo: -5, Hi: 5}}},
		} {
			if err := CheckDecisions(t, c.tmpl, c.defaults, 9, 4096); err != nil {
				t.Fatalf("%s, %s: %v", tc.name, c.how, err)
			}
			plan := Compile(c.tmpl, c.defaults)
			for i, s := range plan.slots {
				name := plan.names[i]
				// decision is what the slot decides when the contract selects
				// entry e of the template: the vocabulary code, or the index
				// among the selectable entries.
				decision := func(e int) int {
					if s.symbolic {
						return slices.Index(s.vocab, symbolic.Entries[e].Value)
					}
					return slices.IndexFunc(s.ranges, func(x Range) bool { return x.lo == numeric.Entries[e].Lo })
				}
				for i, last := range s.last {
					held, e := i, entryAt(last)
					if s.symbolic {
						held = s.codes[i]
					}
					if held != decision(e) {
						t.Fatalf("%s, %s: %s entry %d decides %d and ends at word %d, where the contract decides %d", tc.name, c.how, name, i, held, last, decision(e))
					}
					if last != math.MaxUint32 && entryAt(last+1) == e {
						t.Fatalf("%s, %s: %s entry %d ends at word %d, the contract still selects it at the next", tc.name, c.how, name, i, last)
					}
				}
				if s.last[len(s.last)-1] != math.MaxUint32 {
					t.Fatalf("%s, %s: %s: the last threshold is %d", tc.name, c.how, name, s.last[len(s.last)-1])
				}
				cut := 0
				for b, got := range s.table {
					first, last := entryAt(uint32(b)<<24), entryAt(uint32(b)<<24|(1<<24-1))
					want := walk
					if first == last && decision(first) < walk {
						want = decision(first)
					}
					if int(got) != want {
						t.Fatalf("%s, %s: %s table[%d] = %d, want %d (the contract selects entries %d to %d)", tc.name, c.how, name, b, got, want, first, last)
					}
					if first != last {
						cut++
					}
				}
				if tc.cut >= 0 && cut != tc.cut {
					t.Errorf("%s, %s: %s has %d cut buckets, want %d", tc.name, c.how, name, cut, tc.cut)
				}
			}
		}
	}

	// A template that reorders, subsets and zeroes the vocabulary still
	// decides vocabulary codes.
	defaults := testDefaults(t)
	for _, src := range []string{
		"template t { weight Mnemonic { mul: 5; load: 0; add: 2; } weight Mode { slow: 1; fast: 1; } }",
		"template t { weight Mnemonic { mul: 0; add: 0; store: 0; load: 0; } }",
		"template t { weight CacheDelay { [50:60]: 0; [0:9]: 4; [10:49]: 1; } }",
	} {
		if err := CheckDecisions(t, mustParse(t, src), defaults, 10, 4096); err != nil {
			t.Fatalf("%s: %v", src, err)
		}
	}
}

// TestPlanTablesAreBounded: cmd/farmd compiles a plan for every chunk
// it is sent, so what a plan holds must not grow with what it is
// sent. The widest template — every declared parameter at the widest
// total Intn can draw — holds 256 bytes of table per declared parameter,
// full stop; the same template with a thousand more parameters of its
// own is an error naming the first of them.
func TestPlanTablesAreBounded(t *testing.T) {
	defaults := testDefaults(t)
	var src strings.Builder
	src.WriteString("template wide {\n")
	fmt.Fprintf(&src, "weight Mnemonic { load: %d; mul: 1; }\n", 1<<32-1)
	fmt.Fprintf(&src, "weight CacheDelay { [0:9]: 1; [10:100]: %d; }\n", 1<<32-1)
	fmt.Fprintf(&src, "weight Mode { slow: %d; fast: %d; }\n", 1<<31, 1<<31)
	plan := Compile(mustParse(t, src.String()+"}"), defaults)
	if err := plan.Err(); err != nil {
		t.Fatal(err)
	}
	bytes := 0
	for _, s := range plan.slots {
		bytes += len(s.table)
	}
	if want := len(defaults) * 256; len(plan.slots) != len(defaults) || bytes != want {
		t.Errorf("the plan holds %d slots and %d bytes of tables, want %d and %d: 256 per declared parameter",
			len(plan.slots), bytes, len(defaults), want)
	}

	for i := 0; i < 1000; i++ {
		fmt.Fprintf(&src, "weight Extra%d { a: %d; b: 1; }\n", i, 1<<32-1)
	}
	err := Compile(mustParse(t, src.String()+"}"), defaults).Err()
	if want := `parameter "Extra0": not one of the unit's parameters [CacheDelay Mnemonic Mode]`; err == nil || !strings.Contains(err.Error(), want) {
		t.Errorf("a thousand undeclared parameters: Err() = %v, want it to mention %s", err, want)
	}
}

// TestSlotOrderIsSortedDefaultsThenTemplateOrder: slots follow the
// defaults' sorted names, and the order a template lists its settings in
// counts for nothing — it adds no slot of its own.
func TestSlotOrderIsSortedDefaultsThenTemplateOrder(t *testing.T) {
	defaults := testDefaults(t)
	tmpl := mustParse(t, `template t { weight Mode { slow: 1; } range CacheDelay [1:2]; weight Mnemonic { mul: 1; } }`)
	plan := Compile(tmpl, defaults)
	want := []string{"CacheDelay", "Mnemonic", "Mode"}
	if !reflect.DeepEqual(plan.names, want) || len(plan.slots) != len(want) {
		t.Fatalf("slots over %v (%d of them), want one each over %v", plan.names, len(plan.slots), want)
	}
	if plan.slots[0].ranges[0] != (Range{lo: 1, span: 2}) || plan.slots[1].codes[0] != 3 || plan.slots[2].codes[0] != 1 {
		t.Fatalf("a slot holds another parameter's setting: %+v", plan.slots)
	}
	bind := Bind(defaults)
	for i, name := range want {
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
		if got, want := New(tmpl, defaults, 1).decide(h), bind.Code("Mnemonic", v); got != want {
			t.Errorf("template {%s}: Code = %d, want %d", v, got, want)
		}
	}
	tmpl := mustParse(t, "template t { weight Mnemonic { mul: 0; store: 5; load: 0; } }")
	g := New(tmpl, defaults, 2)
	for i := 0; i < 100; i++ {
		if got := g.decide(h); got != bind.Code("Mnemonic", "store") {
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
	bind.Check(New(mustParse(t, "template t { range CacheDelay [1:2]; }"), defaults, 1)) // a template changes no slot

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

// TestPlanErrors: a parameter the unit does not declare, what a template
// may not say about one it does, and malformed settings. The first used
// to compile and run the unit's default in silence; each of the others
// used to reach the decision loop as a false coverage hit or a panic.
func TestPlanErrors(t *testing.T) {
	defaults := testDefaults(t)
	for _, tc := range []struct {
		name, want string
		tmpl       *template.Template
	}{
		{"undeclared parameter", `parameter "Mnemonik": not one of the unit's parameters [CacheDelay Mnemonic Mode]`,
			mustParse(t, "template t { weight Mnemonic { load: 1; } weight Mnemonik { load: 1; } }")},
		{"out of vocabulary", `value "div" is not one of [load store add mul]`,
			mustParse(t, "template t { weight Mnemonic { load: 1; div: 1; } }")},
		{"symbolic over a range default", `value "fast" overrides a numeric default`,
			mustParse(t, "template t { weight CacheDelay { fast: 1; } }")},
		{"range over a symbolic default", "[0:3] overrides a symbolic default",
			mustParse(t, "template t { range Mode [0:3]; }")},
		{"subrange over a symbolic default", "[0:3] overrides a symbolic default",
			mustParse(t, "template t { weight Mode { fast: 1; [0:3]: 1; } }")},
		{"empty weight parameter", `parameter "Mode": no entries`,
			&template.Template{Name: "t", Params: []template.Param{&template.WeightParam{Name: "Mode"}}}},
		{"inverted range", "[5:1] is not a range",
			&template.Template{Name: "t", Params: []template.Param{&template.RangeParam{Name: "CacheDelay", Lo: 5, Hi: 1}}}},
		{"inverted subrange", "[9:2] is not a range",
			&template.Template{Name: "t", Params: []template.Param{&template.WeightParam{Name: "CacheDelay",
				Entries: []template.WeightEntry{{IsRange: true, Lo: 9, Hi: 2, Weight: 1}}}}}},
		// Every draw is an Intn, uniform up to 1<<32 only. The first of
		// these used to wrap the total negative and panic a worker on its
		// first decision; the second never selected b.
		{"total weight wraps int", `parameter "Mnemonic": total weight exceeds 1<<32`,
			mustParse(t, "template t { weight Mnemonic { load: 9223372036854775807; mul: 9223372036854775807; } }")},
		{"total weight above 1<<32", `parameter "Mnemonic": total weight exceeds 1<<32`,
			mustParse(t, "template t { weight Mnemonic { load: 1099511627776; mul: 1099511627776; } }")},
		{"one weight above 1<<32", `parameter "Mode": total weight exceeds 1<<32`,
			mustParse(t, "template t { weight Mode { slow: 4294967297; } }")},
		{"range wider than 1<<32", "[0:4294967296] span exceeds 1<<32",
			mustParse(t, "template t { range CacheDelay [0 : 4294967296]; }")},
		{"range as wide as int", `parameter "CacheDelay": [-9223372036854775808:9223372036854775807] span exceeds 1<<32`,
			&template.Template{Name: "t", Params: []template.Param{&template.RangeParam{Name: "CacheDelay", Lo: math.MinInt, Hi: math.MaxInt}}}},
		{"subrange wider than 1<<32", "[-1:4294967295] span exceeds 1<<32",
			&template.Template{Name: "t", Params: []template.Param{&template.WeightParam{Name: "CacheDelay",
				Entries: []template.WeightEntry{{IsRange: true, Lo: 0, Hi: 9, Weight: 1}, {IsRange: true, Lo: -1, Hi: 1<<32 - 1, Weight: 1}}}}}},
	} {
		err := Compile(tc.tmpl, defaults).Err()
		if err == nil || !strings.Contains(err.Error(), tc.want) {
			t.Errorf("%s: Err() = %v, want it to mention %q", tc.name, err, tc.want)
		}
	}
	// A default may not mix symbolic values and subranges: no template
	// could override it, and no decider answers it.
	mixed := &template.WeightParam{Name: "X", Entries: []template.WeightEntry{{Value: "on", Weight: 1}, {IsRange: true, Lo: 0, Hi: 9, Weight: 1}}}
	if err := Compile(nil, Defaults{"X": mixed}).Err(); err == nil || !strings.Contains(err.Error(), `parameter "X": mixes symbolic values and subranges`) {
		t.Errorf("mixed default: Err() = %v", err)
	}
	// 1<<32 itself is inside Intn's domain, as a total and as a span.
	if err := Compile(mustParse(t, "template t { weight Mnemonic { load: 2147483648; mul: 2147483648; } range CacheDelay [1 : 4294967296]; }"), defaults).Err(); err != nil {
		t.Errorf("total weight and span of exactly 1<<32: %v", err)
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
		g.decide(hM)
		g.decideInt(hD)
		g.PickValue("Mnemonic")
		g.PickInt("CacheDelay")
	}); n != 0 {
		t.Fatalf("decisions allocate %v times per run", n)
	}
}

// TestDecidersAreAskedInPlace pins the deciders' receivers: a value
// receiver on a 64-byte decider would copy it whole before every
// decision (package comment, "Deciders"), so the value types have no
// methods at all and the pointers have Code and Pick.
func TestDecidersAreAskedInPlace(t *testing.T) {
	for _, c := range []struct {
		typ    reflect.Type
		method string
	}{{reflect.TypeOf(Choice{}), "Code"}, {reflect.TypeOf(Ranges{}), "Pick"}} {
		if n := c.typ.NumMethod(); n != 0 {
			t.Errorf("%v has %d value-receiver methods, want 0", c.typ, n)
		}
		if _, ok := reflect.PointerTo(c.typ).MethodByName(c.method); !ok {
			t.Errorf("*%v has no method %s", c.typ, c.method)
		}
	}
}

func TestCompiledSingleEntryConsumesNoRandomness(t *testing.T) {
	tmpl, defaults := mustParse(t, "template t { weight Mnemonic { mul: 0; } }"), testDefaults(t)
	g := NewFromPlan(Compile(tmpl, defaults), 17)
	if v := g.PickValue("Mnemonic"); v != "mul" {
		t.Fatalf("pick = %q", v)
	}
	// The stream must be untouched: the next draw equals a fresh
	// generator's first draw.
	if g.RNG().Uint64() != NewFromPlan(Compile(tmpl, defaults), 17).RNG().Uint64() {
		t.Fatal("single-entry pick consumed randomness")
	}
}

func TestCompiledAllZeroWeightsUniform(t *testing.T) {
	tmpl := mustParse(t, "template t { weight Mode { fast: 0; slow: 0; } }")
	g := NewFromPlan(Compile(tmpl, testDefaults(t)), 7)
	seen := map[string]int{}
	for i := 0; i < 2000; i++ {
		seen[g.PickValue("Mode")]++
	}
	if seen["fast"] < 800 || seen["slow"] < 800 {
		t.Fatalf("all-zero weights not uniform on the compiled path: %v", seen)
	}
}

func TestPlanImmuneToTemplateMutation(t *testing.T) {
	tmpl := mustParse(t, "template t { weight Mode { slow: 100; fast: 0; } }")
	plan := Compile(tmpl, testDefaults(t))
	tmpl.Weight("Mode").Entries[0].Weight = 0
	tmpl.Weight("Mode").Entries[1].Weight = 100
	g := NewFromPlan(plan, 3)
	for i := 0; i < 200; i++ {
		if v := g.PickValue("Mode"); v != "slow" {
			t.Fatalf("plan saw a post-compile template mutation: picked %q", v)
		}
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
		"unknown PickValue":           {func() { g.PickValue("Missing") }, func() { o.PickValue("Missing") }},
		"unknown PickInt":             {func() { g.PickInt("Missing") }, func() { o.PickInt("Missing") }},
		"PickValue on range":          {func() { g.PickValue("CacheDelay") }, func() { o.PickValue("CacheDelay") }},
		"PickInt on symbolic weight":  {func() { g.PickInt("Mnemonic") }, func() { o.PickInt("Mnemonic") }},
		"Choice of a range":           {func() { g.Choice(bind.Handle("CacheDelay")) }, func() { o.PickValue("CacheDelay") }},
		"Ranges of a symbolic weight": {func() { g.Ranges(bind.Handle("Mnemonic")) }, func() { o.PickInt("Mnemonic") }},
	} {
		if !panics(pair[0]) || !panics(pair[1]) {
			t.Errorf("%s should panic on the slot path and in the interpreter", name)
		}
	}
}
