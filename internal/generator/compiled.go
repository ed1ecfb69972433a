// Compiled sampling plans: "compile once, execute N times".
//
// A batch simulation job evaluates one (template, defaults) pair N times
// with N different seeds, and every instance makes thousands of
// decisions. Compile resolves everything a decision would otherwise look
// up — the effective setting of each parameter (template wins), the
// entry each draw selects, the integer code of each symbolic value —
// into a dense slot table shared read-only by all N generators. It is
// the only decision path: New compiles too. The defaults themselves are
// compiled at most once per Binding, not once per plan: a plan compiles
// only the template's overrides and shares the binding's slot of every
// other parameter.
//
// Slot order. A plan has one slot per parameter of the defaults, in
// sorted-name order, so slot i is the same parameter in every plan of one
// unit and the Handles a unit binds at construction are valid for all of
// them. A template changes the defaults of the unit's own parameters
// (paper Section III); a parameter the unit does not declare would bias
// no decision, so a template that names one is an error of the plan
// (Plan.Err), not a slot.
//
// Vocabulary codes. A symbolic default's entry list is the parameter's
// vocabulary; a decision by handle returns the chosen value's index in
// that list, whatever subset or order of it the template weights. A
// template value outside the vocabulary cannot be given a code, so it is
// an error of the plan (Plan.Err), as is a template setting of the other
// type than the default it overrides: the decision loop never sees
// either.
//
// Stream-consumption contract. (template, seed) identifies a
// test-instance bit for bit, so the draws a decision makes are part of
// the format: none to choose among the entries of a single-entry
// parameter (a range parameter is one), one Intn(len) when every weight
// is zero (uniform fallback), one Intn(total) otherwise — zero-weight
// entries are then unselectable — and, for a numeric parameter, one
// IntRange inside the chosen range. compiled_test.go keeps the
// per-decision interpreter this table replaced as the oracle for both
// the decisions and the stream position.
//
// Thresholds. The weighted choice is an implementation of that
// contract, not a second one. Intn(total) scales the 32 bits w of one
// draw to k = ⌊w·total/2³²⌋ and the cumulative-weight scan stops at the
// first entry i with k < cum_i; since cum_i is an integer that is
// w·total/2³² < cum_i, i.e. w < ⌈cum_i·2³²/total⌉ (all weights zero:
// cum_i = i+1, total = the entry count). So the entry is decided on the
// draw itself, whatever the size of total: Compile keeps, per selectable
// entry, the last w that selects it, and per slot a 256-byte table over
// w>>24 that answers the buckets no threshold cuts without a walk (see
// slot.table).
// Every draw is an Intn of at most 1<<32, the widest bound Intn can
// honour: a larger total weight or a wider range is an error of the
// plan.
//
// Deciders. A unit's model does not go through the plan for a decision:
// before its cycle loop it fetches into a local a Choice (symbolic) or a
// Ranges (numeric) for each of its handles — the kind is checked there,
// once per Simulate — and decides in the loop with methods small enough
// to inline into it: (*Choice).Code, (*Ranges).Pick, Range.Int. A
// decider is 64 bytes, too large for registers: Code and Pick take it by
// pointer, so a decision asks the local in place, where a value receiver
// would first copy all 64 bytes into a stack temporary on every call.
// Range, 16 bytes, stays in registers and keeps its value receiver. CI
// keeps the methods inlinable and the units free of decider copies
// (.github/workflows/ci.yml, "Inlining guard", "A decision copies no
// decider"). They are the only decision code: PickValue and PickInt find
// a slot by name and ask the same deciders.
package generator

import (
	"fmt"
	"math"
	"slices"

	"repro/internal/rng"
	"repro/internal/template"
)

// maxDraw is the widest bound a decision may hand to Intn (see its
// comment): beyond it some entries, or some values of a range, could
// never be drawn.
const maxDraw = 1 << 32

// walk marks a table bucket that does not decide: a threshold cuts it,
// or what it would hold does not fit below the marker.
const walk = math.MaxUint8

// Range is one integer interval a numeric decision chose.
type Range struct {
	lo   int
	span uint64 // hi-lo+1, at most maxDraw
}

// Int draws a value of the range: IntRange(lo, hi), bit for bit.
func (x Range) Int(r *rng.RNG) int {
	return x.lo + int(uint64(r.Word(rng.Stride))*x.span>>32)
}

// Choice decides one symbolic parameter of one plan. Fetch it into a
// local with Generator.Choice before the cycle loop and ask it through
// that local; it is a pointer, a step and two slice headers over the
// plan's read-only data, safe to share.
type Choice struct {
	table *[256]uint8
	last  []uint32
	codes []int
	step  uint64
}

// Code makes a random decision and returns the chosen value's vocabulary
// code (Binding.Code). It must stay inlinable: see the package comment.
func (c *Choice) Code(r *rng.RNG) int {
	w := r.Word(c.step)
	i := int(c.table[w>>24])
	if i != walk {
		return i
	}
	for i = 0; w > c.last[i]; i++ {
	}
	return c.codes[i]
}

// Ranges decides one numeric parameter of one plan: a range parameter,
// or a weight parameter over subranges (the Skeletonizer's output form).
// Fetch it into a local with Generator.Ranges before the cycle loop.
type Ranges struct {
	table  *[256]uint8
	last   []uint32
	ranges []Range
	step   uint64
}

// Pick makes the weighted draw of a subrange — none for a range
// parameter — and Int on the result the uniform draw inside it: this is
// exactly how the CDG-Runner shapes the distribution of an
// originally-uniform range parameter (paper Section IV-C). It must stay
// inlinable: see the package comment.
func (d *Ranges) Pick(r *rng.RNG) Range {
	w := r.Word(d.step)
	i := int(d.table[w>>24])
	if i == walk {
		for i = 0; w > d.last[i]; i++ {
		}
	}
	return d.ranges[i]
}

// slot is one pre-resolved parameter of a Plan. last, codes and ranges
// run over its selectable entries in template order: every entry when
// all weights are zero (uniform fallback), else those of positive
// weight — the others can never be drawn and are checked, then dropped.
type slot struct {
	// table, indexed by the top byte of the draw, holds what every draw
	// of that bucket decides — the vocabulary code of a symbolic slot,
	// else the entry index — or walk. At most entries−1 buckets are cut,
	// so on the flow's templates (≤ 5 entries) 98 % of decisions end
	// here.
	table  *[256]uint8
	last   []uint32 // the largest draw word that selects the entry; ascending, ending at MaxUint32
	codes  []int    // a symbolic slot's vocabulary codes
	ranges []Range  // subrange bounds
	step   uint64   // what a decision advances the stream by: 0 for a single-entry parameter
	vocab  []string // symbolic values by code, for PickValue and errors
	// symbolic: every entry a symbolic value (Choice); else every entry a
	// subrange, or a range parameter held as its one subrange (Ranges).
	symbolic bool
}

// fill builds the slot's table into t: entry by entry, the marker on
// the bucket its threshold cuts (none when the threshold is the bucket's
// last word) and its decision on the whole buckets before that.
func (s *slot) fill(t *[256]uint8) {
	b := 0
	for i, last := range s.last {
		v := i
		if s.symbolic {
			v = s.codes[i]
		}
		if v >= walk {
			v = walk
		}
		whole := int((uint64(last) + 1) >> 24) // buckets that end at or before last
		for ; b < whole; b++ {
			t[b] = uint8(v)
		}
		if b == int(last>>24) { // last falls inside bucket b
			t[b] = walk
			b++
		}
	}
	s.table = t
}

// Plan is a compiled (template, defaults) pair. A Plan is immutable
// after Compile and safe for concurrent use by any number of generators.
type Plan struct {
	tmpl  *template.Template
	names []string // the defaults' parameters, sorted: one slot each
	slots []slot
	err   error
}

// Compile builds the sampling plan for tmpl (nil = pure defaults) over
// the given defaults: Bind(defaults).Compile(tmpl). Callers that compile
// many templates over one unit's defaults bind once and call
// Binding.Compile.
func Compile(tmpl *template.Template, defaults Defaults) *Plan {
	return Bind(defaults).Compile(tmpl)
}

// Compile builds the sampling plan for tmpl (nil = pure defaults) over
// the binding's defaults. A template the defaults cannot run — see Err —
// still yields a Plan, carrying the error. The plan shares the binding's
// slot of every parameter tmpl leaves alone and compiles each override
// once, against the default's vocabulary and kind: a default is compiled
// at most once per binding, and one the template overrides is only
// checked. A plan holds one slot per parameter of the defaults and one
// table per override: what it holds is bounded by them, not by the
// length of a template off the wire nor by any weight in it.
func (b *Binding) Compile(tmpl *template.Template) *Plan {
	plan := &Plan{tmpl: tmpl, names: b.names, slots: make([]slot, len(b.names))}
	overrides := 0
	if tmpl != nil {
		for _, p := range tmpl.Params {
			if _, ok := slices.BinarySearch(b.names, p.ParamName()); !ok {
				return plan.fail(p.ParamName(), fmt.Errorf("not one of the unit's parameters %v", b.names))
			}
		}
		overrides = min(len(tmpl.Params), len(b.names))
	}
	tables := make([][256]uint8, overrides)
	b.mu.Lock()
	defer b.mu.Unlock()
	for i, name := range b.names {
		var p template.Param
		if tmpl != nil {
			p, _ = tmpl.Param(name)
		}
		def, err := b.def(i, p == nil)
		if err != nil {
			return plan.fail(name, err)
		}
		if p == nil {
			plan.slots[i] = *def
			continue
		}
		s, err := compileParam(p, def)
		if err != nil {
			return plan.fail(name, err)
		}
		s.fill(&tables[0])
		tables = tables[1:]
		plan.slots[i] = s
	}
	return plan
}

// fail records why the named parameter cannot be compiled. The error
// does not name the template: a cached plan serves every template of the
// same body, so whoever returns the error names the one it was given.
func (p *Plan) fail(param string, err error) *Plan {
	p.err = fmt.Errorf("generator: parameter %q: %w", param, err)
	return p
}

// Err reports why the plan cannot drive a generator: a parameter the
// defaults do not declare, a symbolic value outside the parameter's
// vocabulary, a symbolic setting over a numeric default or a range or
// subrange setting over a symbolic one, an empty weight parameter,
// inverted bounds, or a total weight or a range span above 1<<32. Callers that compile templates from outside the program
// check it before NewFromPlan.
func (p *Plan) Err() error { return p.err }

// Template returns the template the plan was compiled from (may be nil).
func (p *Plan) Template() *template.Template { return p.tmpl }

// compileParam lays one setting out as a slot. def is the slot of the
// default this setting overrides (nil for a default itself, whose own
// entries then are the vocabulary). Entries are copied: the plan may be
// cached and shared across goroutines long after the caller mutates its
// template.
func compileParam(p template.Param, def *slot) (slot, error) {
	var s slot
	switch param := p.(type) {
	case *template.RangeParam:
		x, err := rangeEntry(param.Lo, param.Hi, def)
		if err != nil {
			return slot{}, err
		}
		one := &struct { // one allocation for both one-entry lists
			last   [1]uint32
			ranges [1]Range
		}{[1]uint32{math.MaxUint32}, [1]Range{x}}
		s.last, s.ranges = one.last[:], one.ranges[:]
	case *template.WeightParam:
		n := len(param.Entries)
		if n == 0 {
			return slot{}, fmt.Errorf("no entries")
		}
		if def != nil {
			s.vocab = def.vocab
		} else {
			s.vocab = make([]string, n)
		}
		codes, ranges := make([]int, n), make([]Range, n)
		total, subranges := 0, 0
		for i, we := range param.Entries {
			switch {
			case we.IsRange:
				var err error
				if ranges[i], err = rangeEntry(we.Lo, we.Hi, def); err != nil {
					return slot{}, err
				}
				subranges++
			case def == nil:
				s.vocab[i] = we.Value
				codes[i] = i
			case !def.symbolic:
				return slot{}, fmt.Errorf("value %q overrides a numeric default", we.Value)
			default:
				if codes[i] = slices.Index(def.vocab, we.Value); codes[i] < 0 {
					return slot{}, fmt.Errorf("value %q is not one of %v", we.Value, def.vocab)
				}
			}
			if we.Weight > 0 {
				// Each term is at most maxDraw, so the sum cannot wrap.
				if we.Weight > maxDraw || total+we.Weight > maxDraw {
					return slot{}, fmt.Errorf("total weight exceeds 1<<32")
				}
				total += we.Weight
			}
		}
		if subranges != 0 && subranges != n { // a template's entries must fit its default, so only a default can mix
			return slot{}, fmt.Errorf("mixes symbolic values and subranges")
		}
		s.symbolic = subranges == 0
		if n > 1 {
			s.step = rng.Stride
		}
		// Keep the selectable entries, each with the last draw word below
		// its threshold ⌈cum·2³²/total⌉ (package comment). cum < total ≤
		// 1<<32 keeps the numerator inside 64 bits, cum ≥ 1 the threshold
		// above zero, and the last entry's is 1<<32 itself.
		last, k := make([]uint32, n), 0 // k selectable entries so far, compacted in place
		cum, of := uint64(0), uint64(total)
		if total == 0 {
			of = uint64(n)
		}
		for i, we := range param.Entries {
			switch {
			case total == 0:
				cum++
			case we.Weight > 0:
				cum += uint64(we.Weight)
			default:
				continue
			}
			last[k] = math.MaxUint32
			if cum < of {
				last[k] = uint32((cum<<32+of-1)/of - 1)
			}
			codes[k], ranges[k] = codes[i], ranges[i]
			k++
		}
		s.last, s.codes, s.ranges = last[:k], codes[:k], ranges[:k]
	default:
		return slot{}, fmt.Errorf("unknown type %T", p)
	}
	return s, nil
}

// rangeEntry is the interval of a range parameter or of one subrange.
func rangeEntry(lo, hi int, def *slot) (Range, error) {
	if def != nil && def.symbolic {
		return Range{}, fmt.Errorf("[%d:%d] overrides a symbolic default (values %v)", lo, hi, def.vocab)
	}
	if hi < lo {
		return Range{}, fmt.Errorf("[%d:%d] is not a range", lo, hi)
	}
	if uint64(hi)-uint64(lo) >= maxDraw { // the span less one, exact whatever the signs
		return Range{}, fmt.Errorf("[%d:%d] span exceeds 1<<32", lo, hi)
	}
	return Range{lo: lo, span: uint64(hi) - uint64(lo) + 1}, nil
}
