// Compiled sampling plans: "compile once, execute N times".
//
// A batch simulation job evaluates one (template, defaults) pair N times
// with N different seeds, and every instance makes thousands of
// decisions. Compile resolves everything a decision would otherwise look
// up — the effective setting of each parameter (template wins), the
// entry each draw selects, the integer code of each symbolic value —
// into a dense slot table shared read-only by all N generators. It is
// the only decision path: New compiles too.
//
// Slot order. The defaults' parameters come first, in sorted-name order,
// so slot i is the same parameter in every plan of one unit and the
// Handles a unit binds at construction are valid for all of them.
// Parameters only the template names follow, in template order; no unit
// holds a handle to those, they are reached by name (PickValue, PickInt,
// Has).
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
// Draw tables. The weighted choice is an implementation of that
// contract, not a second one: Compile tabulates, for every draw k the
// contract allows, the entry a scan of the cumulative weights would stop
// at, so a decision is the contract's one Intn and one byte load, with no
// branch on the drawn value (see slot.lut for the slots this covers: all
// that a unit decides over a template of the flow).
// Every draw is an Intn of at most 1<<32, the widest bound Intn can
// honour: a larger total weight or a wider range is an error of the
// plan.
package generator

import (
	"fmt"

	"repro/internal/rng"
	"repro/internal/template"
)

// slotKind says which decisions a slot answers.
type slotKind uint8

const (
	kindSymbolic  slotKind = iota // every entry a symbolic value: Code, PickValue
	kindMixed                     // symbolic and subrange entries: PickValue
	kindSubranges                 // every entry a subrange: Int, PickInt, PickValue
	kindRange                     // a range parameter, held as its one subrange: Int, PickInt
)

// entry is one selectable entry of a slot.
type entry struct {
	cum    int // cumulative positive weight up to and including this entry
	code   int // symbolic value: its vocabulary code; subrange: -1
	lo, hi int // subrange bounds
}

// maxDraw is the widest bound a decision may hand to Intn (see its
// comment): beyond it some entries, or some values of a range, could
// never be drawn.
const maxDraw = 1 << 32

// lutCap bounds a slot's draw table, in bytes. The flow's own templates
// stay far below it — no unit, and no skeleton at the default four
// subranges, has more than five entries, a skeleton weights each at most
// MaxWeight 100 and every unit's totals are 100 — so the cap only bounds
// what a template off the wire (cmd/farmd) can make a cached plan hold:
// 4 KiB for each parameter the unit declares.
const lutCap = 4096

// slot is one pre-resolved parameter of a Plan.
type slot struct {
	// lut maps each draw of the stream-consumption contract to the index
	// of the entry it selects: len(lut) is the total weight, or the entry
	// count when every weight is zero (the identity: uniform fallback).
	// Nil for a single-entry slot, which draws nothing, and for the slots
	// that scan: more than 256 entries, a total weight above lutCap, or a
	// parameter only the template names.
	lut     []uint8
	entries []entry
	total   int      // sum of the positive weights; 0 selects uniformly
	vocab   []string // symbolic values by code, for PickValue
	name    string
	kind    slotKind
}

// pick draws the index of one entry according to the weights.
func (s *slot) pick(r *rng.RNG) int {
	if n := len(s.lut); n != 0 {
		return int(s.lut[r.Intn(n)])
	}
	if len(s.entries) == 1 {
		return 0
	}
	return s.scan(r)
}

// scan is pick for the slots without a draw table: the same draw, then
// a linear walk of the cumulative weights. No decision of a unit's model
// over a template of the flow takes it.
func (s *slot) scan(r *rng.RNG) int {
	if s.total == 0 {
		return r.Intn(len(s.entries))
	}
	k := r.Intn(s.total)
	i := 0
	for s.entries[i].cum <= k {
		i++
	}
	return i
}

// tabulate builds the slot's draw table: lut[k] is the entry the scan
// stops at for draw k.
func (s *slot) tabulate() {
	n := len(s.entries)
	if n < 2 || n > 256 || s.total > lutCap {
		return
	}
	if s.total == 0 {
		s.lut = make([]uint8, n)
		for i := range s.lut {
			s.lut[i] = uint8(i)
		}
		return
	}
	s.lut = make([]uint8, s.total)
	k := 0
	for i := range s.entries {
		for ; k < s.entries[i].cum; k++ {
			s.lut[k] = uint8(i)
		}
	}
}

func (s *slot) code(r *rng.RNG) int {
	if s.kind != kindSymbolic {
		panic(fmt.Sprintf("generator: parameter %q is not a symbolic weight parameter", s.name))
	}
	return s.entries[s.pick(r)].code
}

func (s *slot) int(r *rng.RNG) int {
	if s.kind < kindSubranges {
		panic(fmt.Sprintf("generator: parameter %q has symbolic entries; use PickValue", s.name))
	}
	e := &s.entries[s.pick(r)]
	return r.IntRange(e.lo, e.hi)
}

func (s *slot) label(r *rng.RNG) string {
	if s.kind == kindRange {
		panic(fmt.Sprintf("generator: parameter %q is not a weight parameter", s.name))
	}
	e := &s.entries[s.pick(r)]
	if e.code < 0 {
		return fmt.Sprintf("[%d:%d]", e.lo, e.hi)
	}
	return s.vocab[e.code]
}

// Plan is a compiled (template, defaults) pair. A Plan is immutable
// after Compile and safe for concurrent use by any number of generators.
type Plan struct {
	tmpl  *template.Template
	names []string // the defaults' parameters, sorted: slots[:len(names)]
	slots []slot
	index map[string]int // parameter name -> slot
	err   error
}

// Compile builds the sampling plan for tmpl (nil = pure defaults) over
// the given defaults. A template the defaults cannot run — see Err —
// still yields a Plan, carrying the error.
func Compile(tmpl *template.Template, defaults Defaults) *Plan {
	names := sortedNames(defaults)
	plan := &Plan{tmpl: tmpl, names: names, slots: make([]slot, len(names)), index: make(map[string]int, len(names))}
	for i, name := range names {
		plan.index[name] = i
		s, err := compileParam(defaults[name], nil)
		if err == nil && tmpl != nil {
			if p, ok := tmpl.Param(name); ok {
				s, err = compileParam(p, &s)
			}
		}
		if err != nil {
			return plan.fail(name, err)
		}
		plan.slots[i] = s
	}
	if tmpl != nil {
		for _, p := range tmpl.Params {
			if _, ok := plan.index[p.ParamName()]; ok {
				continue
			}
			s, err := compileParam(p, nil)
			if err != nil {
				return plan.fail(p.ParamName(), err)
			}
			plan.index[s.name] = len(plan.slots)
			plan.slots = append(plan.slots, s)
		}
	}
	// Only the unit's own parameters get a draw table: they are the ones
	// a model decides, and their number — not the length of a template
	// off the wire — then bounds what a plan holds.
	for i := range names {
		plan.slots[i].tabulate()
	}
	return plan
}

// fail records why the named parameter cannot be compiled.
func (p *Plan) fail(param string, err error) *Plan {
	if p.tmpl != nil {
		p.err = fmt.Errorf("generator: template %q: parameter %q: %w", p.tmpl.Name, param, err)
	} else {
		p.err = fmt.Errorf("generator: parameter %q: %w", param, err)
	}
	return p
}

// Err reports why the plan cannot drive a generator: a symbolic value
// outside the parameter's vocabulary, a symbolic setting over a numeric
// default or a range or subrange setting over a symbolic one, an empty
// weight parameter, inverted bounds, or a total weight or a range span
// above 1<<32. Callers that compile templates from outside the program
// check it before NewFromPlan.
func (p *Plan) Err() error { return p.err }

// Template returns the template the plan was compiled from (may be nil).
func (p *Plan) Template() *template.Template { return p.tmpl }

// Has reports whether the plan defines the parameter.
func (p *Plan) Has(name string) bool {
	_, ok := p.index[name]
	return ok
}

// lookup finds a parameter's slot by name.
func (p *Plan) lookup(name string) *slot {
	i, ok := p.index[name]
	if !ok {
		panic(fmt.Sprintf("generator: no setting or default for parameter %q", name))
	}
	return &p.slots[i]
}

// compileParam lays one setting out as a slot. def is the slot of the
// default this setting overrides (nil for a default itself and for a
// parameter only the template names, whose own entries then are the
// vocabulary). Entries are copied: the plan may be cached and shared
// across goroutines long after the caller mutates its template.
func compileParam(p template.Param, def *slot) (slot, error) {
	s := slot{name: p.ParamName()}
	switch param := p.(type) {
	case *template.RangeParam:
		e, err := rangeEntry(param.Lo, param.Hi, def)
		if err != nil {
			return slot{}, err
		}
		s.kind = kindRange
		s.entries = []entry{e}
	case *template.WeightParam:
		if len(param.Entries) == 0 {
			return slot{}, fmt.Errorf("no entries")
		}
		s.entries = make([]entry, len(param.Entries))
		if def != nil {
			s.vocab = def.vocab
		} else {
			s.vocab = make([]string, len(param.Entries))
		}
		subranges := 0
		for i, we := range param.Entries {
			var e entry
			switch {
			case we.IsRange:
				var err error
				if e, err = rangeEntry(we.Lo, we.Hi, def); err != nil {
					return slot{}, err
				}
				subranges++
			case def == nil:
				s.vocab[i] = we.Value
				e.code = i
			case def.kind >= kindSubranges:
				return slot{}, fmt.Errorf("value %q overrides a numeric default", we.Value)
			default:
				if e.code = indexOf(def.vocab, we.Value); e.code < 0 {
					return slot{}, fmt.Errorf("value %q is not one of %v", we.Value, def.vocab)
				}
			}
			if we.Weight > 0 {
				// Each term is at most maxDraw, so the sum cannot wrap.
				if we.Weight > maxDraw || s.total+we.Weight > maxDraw {
					return slot{}, fmt.Errorf("total weight exceeds 1<<32")
				}
				s.total += we.Weight
			}
			e.cum = s.total
			s.entries[i] = e
		}
		switch subranges {
		case 0:
			s.kind = kindSymbolic
		case len(s.entries):
			s.kind = kindSubranges
		default:
			s.kind = kindMixed
		}
	default:
		return slot{}, fmt.Errorf("unknown type %T", p)
	}
	return s, nil
}

// rangeEntry is the entry of a range parameter or of one subrange.
func rangeEntry(lo, hi int, def *slot) (entry, error) {
	if def != nil && def.kind == kindSymbolic {
		return entry{}, fmt.Errorf("[%d:%d] overrides a symbolic default (values %v)", lo, hi, def.vocab)
	}
	if hi < lo {
		return entry{}, fmt.Errorf("[%d:%d] is not a range", lo, hi)
	}
	if uint64(hi)-uint64(lo) >= maxDraw { // the span less one, exact whatever the signs
		return entry{}, fmt.Errorf("[%d:%d] span exceeds 1<<32", lo, hi)
	}
	return entry{code: -1, lo: lo, hi: hi}, nil
}

func indexOf(vocab []string, value string) int {
	for i, v := range vocab {
		if v == value {
			return i
		}
	}
	return -1
}
