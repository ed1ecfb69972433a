// Package generator implements the biased-random stimuli generation
// engine of the AS-CDG reproduction.
//
// In the verification environments the paper targets (Section III), a
// test-template modifies the default settings of some parameters of the
// stimuli generator; all other parameters keep their default behavior.
// During generation, the engine is consulted every time a random decision
// tied to a parameter must be made — a parameter may be consulted many
// times per test-instance (e.g. an instruction mnemonic for every
// generated instruction) or not at all (e.g. a cache delay only when the
// cache is accessed).
//
// A test-instance is fully identified by (template, seed): re-running the
// generator with the same pair reproduces the same decision stream, which
// makes every simulation in this repository reproducible.
//
// Names are resolved before the first decision, never during one. A unit
// model binds its parameter names to Handles and its symbolic values to
// vocabulary codes once, when it is constructed (Bind); a (template,
// defaults) pair is compiled once per batch into a Plan whose slot order
// those handles index (Binding.Compile, over defaults compiled once per
// binding); and a model fetches the deciders of its handles once per
// test-instance, before its cycle loop (Choice, Ranges).
// The per-cycle decision is then a draw and a byte load, inlined into the
// loop.
package generator

import (
	"fmt"
	"slices"
	"sort"
	"sync"

	"repro/internal/rng"
	"repro/internal/template"
)

// Defaults is a DUV's default parameter behavior: the settings used for
// any parameter the test-template does not override. Keys are parameter
// names. A symbolic default's entry list is the parameter's vocabulary:
// the only values a template may weight.
type Defaults map[string]template.Param

// Handle identifies one parameter of a unit's Defaults in every Plan
// compiled over those defaults: its position among the sorted names.
type Handle int

// sortedNames fixes the slot order of a unit's defaults. It is a pure
// function of the key set, which is what lets a Handle bound when the
// unit is constructed index every later Plan.
func sortedNames(defaults Defaults) []string {
	names := make([]string, 0, len(defaults))
	for name := range defaults {
		names = append(names, name)
	}
	sort.Strings(names)
	return names
}

// Binding resolves a unit's parameter names and symbolic values to the
// handles and codes its decision loop uses. Unit models bind once, in
// their constructor; an unknown name or value is a programming error and
// panics there, not in the middle of a campaign.
//
// A binding also compiles its defaults for Compile, each at most once:
// a default is checked (compiled less its decision table) the first time
// a plan needs it and gets its table the first time a plan decides by
// it, so every Plan of a binding shares the slot of each parameter its
// template leaves alone and compiles only the template's overrides. A
// unit's own binding, which only resolves names, compiles nothing.
type Binding struct {
	defaults Defaults
	names    []string

	mu   sync.Mutex     // guards defs, for Compile
	defs []boundDefault // by handle; made by the first Compile
}

// boundDefault is one default as a binding compiles it for its plans.
type boundDefault struct {
	slot          // the compiled default; its table is set once a plan decides by it
	err     error // why the default cannot be compiled
	checked bool  // slot and err hold the default's compile
}

// Bind prepares the name resolution for a unit's defaults.
func Bind(defaults Defaults) *Binding {
	return &Binding{defaults: defaults, names: sortedNames(defaults)}
}

// def returns the compiled default of handle i, checking it on first
// use, and fills its table when the plan decides by the default itself
// (table): a default the template overrides is only checked, since an
// override reads nothing of it but its vocabulary and kind. The caller
// holds b.mu.
func (b *Binding) def(i int, table bool) (*slot, error) {
	if b.defs == nil {
		b.defs = make([]boundDefault, len(b.names))
	}
	d := &b.defs[i]
	if !d.checked {
		d.slot, d.err = compileParam(b.defaults[b.names[i]], nil)
		d.checked = true
	}
	if table && d.err == nil && d.table == nil {
		d.fill(new([256]uint8))
	}
	return &d.slot, d.err
}

// Handle returns the handle of a default parameter.
func (b *Binding) Handle(name string) Handle { return handle(b.names, name) }

// handle finds a parameter among a unit's parameter names (≤ 6 here).
func handle(names []string, name string) Handle {
	i := slices.Index(names, name)
	if i < 0 {
		panic(fmt.Sprintf("generator: no default for parameter %q", name))
	}
	return Handle(i)
}

// Code returns the vocabulary code of a symbolic value: its index in the
// default entry list of the parameter. Choice.Code returns these codes
// whatever order a template lists the values in.
func (b *Binding) Code(name, value string) int {
	if wp, ok := b.defaults[name].(*template.WeightParam); ok {
		for i, e := range wp.Entries {
			if !e.IsRange && e.Value == value {
				return i
			}
		}
	}
	panic(fmt.Sprintf("generator: parameter %q has no default value %q", name, value))
}

// Vocabulary returns the values of a symbolic parameter in code order:
// its default entry list. Units fill their code-indexed tables from it,
// so the defaults remain the one declaration of each vocabulary.
func (b *Binding) Vocabulary(name string) []string {
	wp, ok := b.defaults[name].(*template.WeightParam)
	if !ok {
		panic(fmt.Sprintf("generator: no symbolic default for parameter %q", name))
	}
	vocab := make([]string, len(wp.Entries))
	for i, e := range wp.Entries {
		if e.IsRange {
			panic(fmt.Sprintf("generator: the default of parameter %q has subrange entries", name))
		}
		vocab[i] = e.Value
	}
	return vocab
}

// Check panics unless g decides over a plan compiled from the defaults
// the binding was made over, the condition for the binding's handles to
// index g's slots. A unit calls it once per Simulate, so a generator
// built over other defaults — or over a Defaults map that gained or lost
// a parameter after Bind — fails with both name lists instead of
// deciding from the wrong parameter.
func (b *Binding) Check(g *Generator) {
	if !slices.Equal(b.names, g.plan.names) {
		panic(fmt.Sprintf("generator: handles bound over parameters %v used with a plan over %v", b.names, g.plan.names))
	}
}

// Generator makes biased-random decisions for one test-instance of a
// compiled Plan. It holds its random stream by value, so one generator
// can be Reset and reused for every instance of a chunk.
type Generator struct {
	plan *Plan
	r    rng.RNG
	seed uint64
}

// NewFromPlan returns a generator for one test-instance of the compiled
// plan. It panics on a plan that carries an error: callers that compile
// templates from outside the program check Plan.Err first.
func NewFromPlan(plan *Plan, seed uint64) *Generator {
	if plan.err != nil {
		panic(fmt.Sprintf("generator: NewFromPlan on an invalid plan: %v", plan.err))
	}
	return &Generator{plan: plan, r: *rng.New(seed), seed: seed}
}

// New returns a generator for one test-instance of tmpl with the given
// defaults and seed. tmpl may be nil, in which case every decision uses
// the defaults. Batch callers compile once and use NewFromPlan.
func New(tmpl *template.Template, defaults Defaults, seed uint64) *Generator {
	return NewFromPlan(Compile(tmpl, defaults), seed)
}

// Reset rebinds the generator to another test-instance of the same plan,
// exactly as if it had been created by NewFromPlan(plan, seed).
func (g *Generator) Reset(seed uint64) {
	g.r = *rng.New(seed)
	g.seed = seed
}

// Seed returns the test-instance seed.
func (g *Generator) Seed() uint64 { return g.seed }

// Template returns the test-template driving this instance (may be nil).
func (g *Generator) Template() *template.Template { return g.plan.tmpl }

// RNG exposes the instance's random stream for auxiliary decisions a DUV
// model needs that are not tied to a template parameter (e.g. internal
// micro-architectural noise). Sharing the stream keeps the whole
// test-instance reproducible from its seed.
func (g *Generator) RNG() *rng.RNG { return &g.r }

// Choice returns the decider of a symbolic weight parameter, to be
// fetched into a local before the cycle loop and asked there through
// that local (Choice.Code). It panics if the plan's setting is numeric.
func (g *Generator) Choice(h Handle) Choice {
	s := &g.plan.slots[h]
	if !s.symbolic {
		panic(fmt.Sprintf("generator: parameter %q is not a symbolic weight parameter", g.plan.names[h]))
	}
	return Choice{table: s.table, last: s.last, codes: s.codes, step: s.step}
}

// Ranges returns the decider of a numeric parameter — a range, or a
// weight parameter over subranges — to be fetched into a local before
// the cycle loop and asked there through that local (Ranges.Pick, then
// Range.Int). It panics if the plan's setting has symbolic entries.
func (g *Generator) Ranges(h Handle) Ranges {
	s := &g.plan.slots[h]
	if s.symbolic {
		panic(fmt.Sprintf("generator: parameter %q has symbolic entries", g.plan.names[h]))
	}
	return Ranges{table: s.table, last: s.last, ranges: s.ranges, step: s.step}
}

// PickValue is Choice.Code by parameter name, returning the chosen
// symbolic value. It panics if the defaults do not name the parameter or
// it is not a symbolic weight parameter: a unit decides parameters it
// declared, so either is a programming error, not an input error.
func (g *Generator) PickValue(name string) string {
	h := handle(g.plan.names, name)
	c := g.Choice(h)
	return g.plan.slots[h].vocab[c.Code(&g.r)]
}

// PickInt is Ranges.Pick, then Range.Int, by parameter name. It panics if
// the defaults do not name the parameter or it has symbolic entries.
func (g *Generator) PickInt(name string) int {
	d := g.Ranges(handle(g.plan.names, name))
	return d.Pick(&g.r).Int(&g.r)
}
