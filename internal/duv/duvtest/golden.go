// Package duvtest holds the test harness every unit model shares: a
// golden lock on the simulated statistics, so a change to the generator
// or to a model's decision loop that moves a single coverage bit of a
// single test-instance fails the unit's own test, and the check that a
// unit refuses a generator its handles or its deciders do not fit.
package duvtest

import (
	"bufio"
	"flag"
	"fmt"
	"hash"
	"hash/fnv"
	"maps"
	"os"
	"path/filepath"
	"sort"
	"strings"
	"testing"

	"repro/internal/duv"
	"repro/internal/generator"
	"repro/internal/rng"
	"repro/internal/skeleton"
	"repro/internal/template"
)

var update = flag.Bool("update-simulate-golden", false,
	"rewrite testdata/simulate_golden.txt (ONLY for deliberate model or generator behavior changes)")

// goldenSeeds is the number of test-instances (seeds 0..goldenSeeds-1)
// hashed per case.
const goldenSeeds = 500

// goldenCase is one template the golden simulates; tmpl nil is the pure
// default behavior.
type goldenCase struct {
	name string
	tmpl *template.Template
}

// goldenCases derives the unit's case list from its own defaults and
// base suite: the nil template, every base template, the richest base
// template skeletonized and instantiated (subrange entries), and for
// every symbolic default parameter the weight shapes the decision path
// special-cases — interleaved zero weights, all-zero weights, a single
// entry — plus the vocabulary in reverse order.
func goldenCases(t *testing.T, unit duv.DUV) []goldenCase {
	t.Helper()
	cases := []goldenCase{{name: "defaults"}}
	base := unit.BaseTemplates()
	richest := base[0]
	for _, b := range base {
		cases = append(cases, goldenCase{"base/" + b.Name, b})
		if len(b.Params) > len(richest.Params) {
			richest = b
		}
	}

	skel, err := skeleton.Skeletonize(richest, skeleton.Options{})
	if err != nil {
		t.Fatal(err)
	}
	inst, err := skel.Instantiate("golden_skel", skel.RandomWeights(rng.New(1)))
	if err != nil {
		t.Fatal(err)
	}
	cases = append(cases, goldenCase{"skeleton/" + richest.Name, inst})

	defaults := unit.Defaults()
	names := make([]string, 0, len(defaults))
	for name := range defaults {
		names = append(names, name)
	}
	sort.Strings(names)
	for _, name := range names {
		wp, ok := defaults[name].(*template.WeightParam)
		if !ok {
			continue
		}
		vocab := wp.Entries
		shape := func(kind string, entries []template.WeightEntry) {
			tmpl := template.New("golden_" + kind)
			tmpl.SetParam(&template.WeightParam{Name: name, Entries: entries})
			cases = append(cases, goldenCase{kind + "/" + name, tmpl})
		}
		interleaved := make([]template.WeightEntry, len(vocab))
		allZero := make([]template.WeightEntry, len(vocab))
		reversed := make([]template.WeightEntry, len(vocab))
		for i, e := range vocab {
			interleaved[i] = template.WeightEntry{Value: e.Value, Weight: (i % 2) * 10 * (i + 1)}
			allZero[i] = template.WeightEntry{Value: e.Value}
			reversed[len(vocab)-1-i] = template.WeightEntry{Value: e.Value, Weight: i + 1}
		}
		shape("zero-interleaved", interleaved)
		shape("all-zero", allZero)
		shape("reversed", reversed)
		shape("single", []template.WeightEntry{{Value: vocab[len(vocab)-1].Value}})
	}
	return cases
}

// hashCase simulates the case's goldenSeeds instances and returns two
// FNV-64a hashes, in seed order: one over their coverage-vector words
// (little-endian, event 0 in bit 0 of word 0), one over the generator's
// stream state after each Simulate. The second locks how many draws an
// instance makes, so a model that skips draws it cannot be influenced by
// must skip exactly as many as it would have made.
func hashCase(unit duv.DUV, tmpl *template.Template) (vectors, states uint64) {
	plan := generator.Compile(tmpl, unit.Defaults())
	hv, hs := fnv.New64a(), fnv.New64a()
	var buf [8]byte
	word := func(h hash.Hash64, w uint64) {
		for i := range buf {
			buf[i] = byte(w >> (8 * uint(i)))
		}
		h.Write(buf[:])
	}
	for seed := uint64(0); seed < goldenSeeds; seed++ {
		g := generator.NewFromPlan(plan, seed)
		v := unit.Simulate(g)
		for lo := 0; lo < v.Len(); lo += 64 {
			var w uint64
			for id := lo; id < lo+64 && id < v.Len(); id++ {
				if v.Get(id) {
					w |= 1 << uint(id-lo)
				}
			}
			word(hv, w)
		}
		word(hs, g.RNG().State())
	}
	return hv.Sum64(), hs.Sum64()
}

// SimulateGolden checks the unit's simulated statistics against
// testdata/simulate_golden.txt in the calling test's package directory:
// one line per case, its name, the vector hash and the stream-state hash.
// The vector column was generated before the decision loop was compiled
// down to handles and codes, the state column before the models skipped
// their quiet cycles; either only changes on a deliberate behavior change.
func SimulateGolden(t *testing.T, unit duv.DUV) {
	t.Helper()
	path := filepath.Join("testdata", "simulate_golden.txt")
	cases := goldenCases(t, unit)

	if *update {
		var b strings.Builder
		for _, c := range cases {
			vectors, states := hashCase(unit, c.tmpl)
			fmt.Fprintf(&b, "%s\t%016x\t%016x\n", c.name, vectors, states)
		}
		if err := os.MkdirAll("testdata", 0o755); err != nil {
			t.Fatal(err)
		}
		if err := os.WriteFile(path, []byte(b.String()), 0o644); err != nil {
			t.Fatal(err)
		}
		return
	}

	f, err := os.Open(path)
	if err != nil {
		t.Fatal(err)
	}
	defer f.Close()
	want := map[string][2]string{}
	sc := bufio.NewScanner(f)
	for sc.Scan() {
		fields := strings.Split(sc.Text(), "\t")
		if len(fields) != 3 {
			t.Fatalf("%s: malformed line %q", path, sc.Text())
		}
		want[fields[0]] = [2]string{fields[1], fields[2]}
	}
	if err := sc.Err(); err != nil {
		t.Fatal(err)
	}
	if len(want) != len(cases) {
		t.Errorf("%s holds %d cases, the unit derives %d", path, len(want), len(cases))
	}
	for _, c := range cases {
		vectors, states := hashCase(unit, c.tmpl)
		if got := fmt.Sprintf("%016x", vectors); got != want[c.name][0] {
			t.Errorf("%s: vectors hash to %s, golden %q", c.name, got, want[c.name][0])
		}
		if got := fmt.Sprintf("%016x", states); got != want[c.name][1] {
			t.Errorf("%s: end-of-instance stream states hash to %s, golden %q", c.name, got, want[c.name][1])
		}
	}
}

// RejectsForeignGenerator checks that the unit refuses a generator
// compiled over defaults other than its own instead of deciding from the
// wrong parameters: its own plus one parameter, which shifts the slots
// its handles index; and, for every parameter in turn, its own with that
// parameter turned from symbolic to numeric or back, which the unit must
// notice where it fetches its deciders, before its first cycle, with a
// panic that names the parameter.
func RejectsForeignGenerator(t *testing.T, unit duv.DUV) {
	t.Helper()
	panicOf := func(defaults generator.Defaults) (msg string) {
		defer func() { msg = fmt.Sprint(recover()) }()
		unit.Simulate(generator.New(nil, defaults, 0))
		return
	}

	foreign := maps.Clone(unit.Defaults())
	foreign["\x00first"] = &template.RangeParam{Name: "\x00first", Lo: 0, Hi: 1}
	if msg := panicOf(foreign); !strings.Contains(msg, "handles bound over") {
		t.Errorf("%s: Simulate over defaults with one more parameter: %s", unit.Name(), msg)
	}

	for name, p := range unit.Defaults() {
		swapped := maps.Clone(unit.Defaults())
		var want string
		if wp, ok := p.(*template.WeightParam); ok && !wp.Entries[0].IsRange {
			swapped[name] = &template.RangeParam{Name: name, Lo: 0, Hi: 1}
			want = fmt.Sprintf("parameter %q is not a symbolic weight parameter", name)
		} else {
			swapped[name] = &template.WeightParam{Name: name, Entries: []template.WeightEntry{{Value: "x", Weight: 1}}}
			want = fmt.Sprintf("parameter %q has symbolic entries", name)
		}
		if msg := panicOf(swapped); !strings.Contains(msg, want) {
			t.Errorf("%s: Simulate with %s of the other kind: %s, want a panic saying %s", unit.Name(), name, msg, want)
		}
	}
}
