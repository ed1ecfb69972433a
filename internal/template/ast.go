// Package template implements the parametrized test-template language of
// the AS-CDG reproduction.
//
// A test-template is the input to the biased-random stimuli generator
// (paper Section III). It modifies the default settings of a subset of
// the verification environment's parameters and leaves the rest at their
// defaults. The language supports the paper's two parameter types:
//
//   - weight parameters: a set of value:weight pairs used as a
//     distribution for random decisions, e.g.
//
//     weight Mnemonic {
//     load:  40;
//     store: 40;
//     add:   0;
//     mul:   20;
//     }
//
//   - range parameters: an inclusive integer range from which values are
//     drawn uniformly, e.g.
//
//     range CacheDelay [0 : 100];
//
// A weight parameter may also carry subrange entries of the form
// "[lo:hi]: w;" — this is the form the Skeletonizer produces when it
// replaces a range parameter with weighted subranges (paper Fig. 1(b)),
// and it lets the CDG-Runner control the distribution over the original
// range.
package template

import (
	"fmt"
	"slices"
	"strconv"
	"strings"
)

// Template is a parsed test-template: a named, ordered list of parameter
// settings.
type Template struct {
	// Name identifies the template (unique within a corpus).
	Name string
	// Params holds the parameter settings in source order.
	Params []Param
}

// Param is a parameter setting inside a template; it is either a
// *WeightParam or a *RangeParam.
type Param interface {
	// ParamName returns the parameter's name.
	ParamName() string
	// CloneParam returns a deep copy.
	CloneParam() Param
	// write appends the canonical source form to b at the given indent.
	write(b *strings.Builder, indent string)
	// appendKey appends the setting's identity to b: see Fingerprint.
	appendKey(b []byte) []byte
}

// WeightEntry is one value:weight pair of a weight parameter. An entry is
// either symbolic (Value set, IsRange false) or a subrange (IsRange true,
// Lo/Hi set) as produced by the Skeletonizer.
type WeightEntry struct {
	Value   string // symbolic value; empty for subrange entries
	Lo, Hi  int    // inclusive subrange bounds; valid when IsRange
	IsRange bool   // true for "[lo:hi]: w" entries
	Weight  int    // non-negative selection weight
}

// Label returns a human-readable identity for the entry: the symbolic
// value, or "[lo:hi]" for subrange entries.
func (e WeightEntry) Label() string {
	if e.IsRange {
		var buf [48]byte // "[", two int64s, ":", "]"
		b := strconv.AppendInt(append(buf[:0], '['), int64(e.Lo), 10)
		b = strconv.AppendInt(append(b, ':'), int64(e.Hi), 10)
		return string(append(b, ']'))
	}
	return e.Value
}

// WeightParam is a weight parameter: a distribution over symbolic values
// and/or subranges.
type WeightParam struct {
	Name    string
	Entries []WeightEntry
}

// ParamName implements Param.
func (p *WeightParam) ParamName() string { return p.Name }

// CloneParam implements Param.
func (p *WeightParam) CloneParam() Param {
	entries := make([]WeightEntry, len(p.Entries))
	copy(entries, p.Entries)
	return &WeightParam{Name: p.Name, Entries: entries}
}

// TotalWeight returns the sum of the (non-negative) entry weights.
func (p *WeightParam) TotalWeight() int {
	total := 0
	for _, e := range p.Entries {
		if e.Weight > 0 {
			total += e.Weight
		}
	}
	return total
}

// Entry returns the entry with the given label and whether it exists.
func (p *WeightParam) Entry(label string) (WeightEntry, bool) {
	for _, e := range p.Entries {
		if e.Label() == label {
			return e, true
		}
	}
	return WeightEntry{}, false
}

func (p *WeightParam) write(b *strings.Builder, indent string) {
	fmt.Fprintf(b, "%sweight %s {\n", indent, p.Name)
	width := 0
	for _, e := range p.Entries {
		if n := len(e.Label()); n > width {
			width = n
		}
	}
	for _, e := range p.Entries {
		fmt.Fprintf(b, "%s    %-*s %d;\n", indent, width+1, e.Label()+":", e.Weight)
	}
	fmt.Fprintf(b, "%s}\n", indent)
}

func (p *WeightParam) appendKey(b []byte) []byte {
	b = appendString(append(b, 'w'), p.Name)
	for _, e := range p.Entries {
		if e.IsRange {
			b = strconv.AppendInt(append(b, '['), int64(e.Lo), 10)
			b = strconv.AppendInt(append(b, ':'), int64(e.Hi), 10)
		} else {
			b = appendString(append(b, '='), e.Value)
		}
		b = strconv.AppendInt(append(b, ':'), int64(e.Weight), 10)
	}
	return append(b, ';')
}

// appendString appends s behind its length, so that no choice of names
// and values makes two different settings read the same.
func appendString(b []byte, s string) []byte {
	b = strconv.AppendInt(b, int64(len(s)), 10)
	return append(append(b, ':'), s...)
}

// RangeParam is a range parameter: values are drawn uniformly from the
// inclusive range [Lo, Hi].
type RangeParam struct {
	Name   string
	Lo, Hi int
}

// ParamName implements Param.
func (p *RangeParam) ParamName() string { return p.Name }

// CloneParam implements Param.
func (p *RangeParam) CloneParam() Param {
	q := *p
	return &q
}

// Width returns the number of values in the range.
func (p *RangeParam) Width() int { return p.Hi - p.Lo + 1 }

func (p *RangeParam) write(b *strings.Builder, indent string) {
	fmt.Fprintf(b, "%srange %s [%d : %d];\n", indent, p.Name, p.Lo, p.Hi)
}

func (p *RangeParam) appendKey(b []byte) []byte {
	b = appendString(append(b, 'r'), p.Name)
	b = strconv.AppendInt(append(b, '['), int64(p.Lo), 10)
	b = strconv.AppendInt(append(b, ':'), int64(p.Hi), 10)
	return append(b, ';')
}

// New returns an empty template with the given name.
func New(name string) *Template {
	return &Template{Name: name}
}

// Clone returns a deep copy of the template.
func (t *Template) Clone() *Template {
	c := &Template{Name: t.Name, Params: make([]Param, len(t.Params))}
	for i, p := range t.Params {
		c.Params[i] = p.CloneParam()
	}
	return c
}

// Param returns the parameter with the given name and whether it exists.
func (t *Template) Param(name string) (Param, bool) {
	for _, p := range t.Params {
		if p.ParamName() == name {
			return p, true
		}
	}
	return nil, false
}

// Weight returns the weight parameter with the given name, or nil if the
// template has no such weight parameter.
func (t *Template) Weight(name string) *WeightParam {
	if p, ok := t.Param(name); ok {
		if wp, ok := p.(*WeightParam); ok {
			return wp
		}
	}
	return nil
}

// Range returns the range parameter with the given name, or nil.
func (t *Template) Range(name string) *RangeParam {
	if p, ok := t.Param(name); ok {
		if rp, ok := p.(*RangeParam); ok {
			return rp
		}
	}
	return nil
}

// SetParam adds p to the template, replacing any existing parameter with
// the same name (preserving its position).
func (t *Template) SetParam(p Param) {
	for i, q := range t.Params {
		if q.ParamName() == p.ParamName() {
			t.Params[i] = p
			return
		}
	}
	t.Params = append(t.Params, p)
}

// ParamNames returns the parameter names in source order.
func (t *Template) ParamNames() []string {
	names := make([]string, len(t.Params))
	for i, p := range t.Params {
		names[i] = p.ParamName()
	}
	return names
}

// String returns the canonical source form of the template; Parse of the
// result reproduces the template exactly.
func (t *Template) String() string {
	var b strings.Builder
	fmt.Fprintf(&b, "template %s {\n", t.Name)
	for _, p := range t.Params {
		p.write(&b, "    ")
	}
	b.WriteString("}\n")
	return b.String()
}

// Fingerprint returns a stable identity string for the template's
// *contents* (name excluded): equal settings yield equal fingerprints
// regardless of parameter order; the order of a weight parameter's
// entries is part of its setting. It is the key of the simulation
// environment's plan cache, computed once per submitted batch, so it is
// one buffer of strconv appends, not the pretty-printer: compact and
// injective, not readable.
func (t *Template) Fingerprint() string {
	byName := func(a, b Param) int { return strings.Compare(a.ParamName(), b.ParamName()) }
	params := t.Params
	if !slices.IsSortedFunc(params, byName) {
		params = slices.Clone(params)
		slices.SortStableFunc(params, byName)
	}
	key := make([]byte, 0, 32*len(params))
	for _, p := range params {
		key = p.appendKey(key)
	}
	return string(key)
}
