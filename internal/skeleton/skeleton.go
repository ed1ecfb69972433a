// Package skeleton implements the Skeletonizer of the AS-CDG flow
// (paper Section IV-C, Fig. 1).
//
// The Skeletonizer receives a test-template and produces a skeleton: a
// copy of the template in which every weight that the CDG-Runner may
// modify is replaced by a mark. Weight parameters keep their entries,
// with each (by default non-zero) weight marked; range parameters —
// from which the generator draws uniformly — are replaced by weight
// parameters over subranges, each subrange weight marked, so the runner
// can shape the distribution over the original range.
//
// The marked positions ("slots") define the fine-grained search space:
// a skeleton with d slots plus a weight vector in [0, MaxWeight]^d
// instantiates to a concrete, valid test-template.
package skeleton

import (
	"fmt"
	"math"
	"strings"

	"repro/internal/rng"
	"repro/internal/template"
)

// SubrangeMode selects how a range parameter is split into subranges.
type SubrangeMode int

const (
	// Linear splits the range into equal-width subranges.
	Linear SubrangeMode = iota
	// Geometric splits the range into subranges of geometrically growing
	// width, giving the runner finer control near the low end — useful
	// for delay- and gap-like parameters whose interesting values are
	// small.
	Geometric
)

// Options control skeletonization. The zero value selects the defaults
// documented on each field.
type Options struct {
	// IncludeZeroWeights also marks weight entries whose weight is zero.
	// Zero weights often flag values that must not be used (paper
	// Fig. 1(b) deliberately leaves "add: 0" unmarked), so the default
	// is to keep them fixed.
	IncludeZeroWeights bool
	// Subranges is the number of subranges a range parameter is split
	// into (default 4). The paper leaves the count user-controlled.
	Subranges int
	// Mode selects the subrange split shape (default Linear).
	Mode SubrangeMode
	// MaxWeight is the upper bound of every slot's weight (default 100).
	MaxWeight int
}

func (o Options) withDefaults() Options {
	if o.Subranges <= 0 {
		o.Subranges = 4
	}
	if o.MaxWeight <= 0 {
		o.MaxWeight = 100
	}
	return o
}

// SlotKind distinguishes the two origins of a skeleton slot.
type SlotKind int

const (
	// SlotWeight marks an original weight-parameter entry.
	SlotWeight SlotKind = iota
	// SlotSubrange marks a subrange produced from a range parameter.
	SlotSubrange
)

// Slot is one modifiable weight in a skeleton.
type Slot struct {
	// Param is the parameter the slot belongs to.
	Param string
	// Label is the entry label ("load" or "[0:32]").
	Label string
	// Kind records whether the slot came from a weight entry or a
	// subrange split.
	Kind SlotKind
}

// Skeleton is a skeletonized test-template: a base template whose marked
// weights are all zero, plus the ordered slot list.
type Skeleton struct {
	base  *template.Template
	slots []Slot
	// at holds each slot's position in base, and params the slots of
	// each base parameter that has any: Instantiate writes a weight
	// vector by position, never by label.
	at      []position
	params  []paramSlots
	entries int // entries over all base parameters
	opts    Options
}

// position is where a slot's weight lives in the base template.
type position struct {
	param, entry int // indexes into base.Params and its Entries
}

// paramSlots are the slots [first, end) of base parameter param: one
// parameter's slots are contiguous, in entry order.
type paramSlots struct {
	param, first, end int
}

// Skeletonize builds a skeleton from a test-template. It returns an
// error if the template is invalid or yields no modifiable slots.
func Skeletonize(t *template.Template, opts Options) (*Skeleton, error) {
	if err := t.Validate(); err != nil {
		return nil, fmt.Errorf("skeleton: %w", err)
	}
	opts = opts.withDefaults()
	s := &Skeleton{base: template.New(t.Name + "_skel"), opts: opts}
	mark := func(param string, entry int, label string, kind SlotKind) {
		pi := len(s.base.Params)
		if n := len(s.params); n == 0 || s.params[n-1].param != pi {
			s.params = append(s.params, paramSlots{param: pi, first: len(s.slots)})
		}
		s.slots = append(s.slots, Slot{Param: param, Label: label, Kind: kind})
		s.at = append(s.at, position{param: pi, entry: entry})
		s.params[len(s.params)-1].end = len(s.slots)
	}
	for _, p := range t.Params {
		wp := &template.WeightParam{Name: p.ParamName()}
		switch param := p.(type) {
		case *template.WeightParam:
			for _, e := range param.Entries {
				if e.Weight > 0 || opts.IncludeZeroWeights {
					mark(param.Name, len(wp.Entries), e.Label(), SlotWeight)
					e.Weight = 0
				}
				wp.Entries = append(wp.Entries, e)
			}
		case *template.RangeParam:
			for _, sub := range split(param.Lo, param.Hi, opts.Subranges, opts.Mode) {
				e := template.WeightEntry{IsRange: true, Lo: sub[0], Hi: sub[1]}
				mark(param.Name, len(wp.Entries), e.Label(), SlotSubrange)
				wp.Entries = append(wp.Entries, e)
			}
		}
		s.base.Params = append(s.base.Params, wp)
		s.entries += len(wp.Entries)
	}
	if len(s.slots) == 0 {
		return nil, fmt.Errorf("skeleton: template %q has no modifiable settings", t.Name)
	}
	return s, nil
}

// split divides the inclusive range [lo, hi] into at most k non-empty,
// non-overlapping, covering subranges.
func split(lo, hi, k int, mode SubrangeMode) [][2]int {
	width := hi - lo + 1
	if k > width {
		k = width
	}
	if k <= 1 {
		return [][2]int{{lo, hi}}
	}
	bounds := make([]int, 0, k+1)
	switch mode {
	case Geometric:
		// Cut points at lo + width^(i/k), deduplicated; guarantees the
		// first subranges are the narrowest.
		bounds = append(bounds, lo)
		for i := 1; i < k; i++ {
			cut := lo + int(math.Round(math.Pow(float64(width), float64(i)/float64(k))))
			if cut <= bounds[len(bounds)-1] {
				cut = bounds[len(bounds)-1] + 1
			}
			if cut > hi {
				break
			}
			bounds = append(bounds, cut)
		}
		bounds = append(bounds, hi+1)
	default: // Linear
		for i := 0; i <= k; i++ {
			bounds = append(bounds, lo+i*width/k)
		}
	}
	subs := make([][2]int, 0, len(bounds)-1)
	for i := 0; i+1 < len(bounds); i++ {
		if bounds[i+1] > bounds[i] {
			subs = append(subs, [2]int{bounds[i], bounds[i+1] - 1})
		}
	}
	return subs
}

// Dim returns the dimensionality of the skeleton's search space.
func (s *Skeleton) Dim() int { return len(s.slots) }

// Slots returns the ordered slot list. The returned slice must not be
// modified.
func (s *Skeleton) Slots() []Slot { return s.slots }

// Options returns the options the skeleton was built with (after
// defaulting).
func (s *Skeleton) Options() Options { return s.opts }

// Base returns the underlying marked template (all slot weights zero).
// The caller must not modify it.
func (s *Skeleton) Base() *template.Template { return s.base }

// MaxWeight returns the upper bound of every slot weight.
func (s *Skeleton) MaxWeight() int { return s.opts.MaxWeight }

// Clamp limits every coordinate of x to the search box [0, MaxWeight],
// in place, and returns x.
func (s *Skeleton) Clamp(x []float64) []float64 {
	for i, v := range x {
		if v < 0 {
			x[i] = 0
		} else if v > float64(s.opts.MaxWeight) {
			x[i] = float64(s.opts.MaxWeight)
		}
	}
	return x
}

// Instantiate creates a concrete test-template named name from the
// skeleton and a weight vector. Weights are clamped to [0, MaxWeight]
// and rounded to integers; a NaN weight is an error. If every marked
// entry of a parameter rounds to zero, the entry with the largest raw
// weight is set to 1: an all-zero parameter would make the generator
// fall back to a uniform choice over *all* entries — including unmarked
// zero-weight entries the template author excluded on purpose.
func (s *Skeleton) Instantiate(name string, weights []float64) (*template.Template, error) {
	if len(weights) != len(s.slots) {
		return nil, fmt.Errorf("skeleton: got %d weights for %d slots", len(weights), len(s.slots))
	}
	t := s.clone(name)
	top := float64(s.opts.MaxWeight)
	for _, ps := range s.params {
		entries := t.Params[ps.param].(*template.WeightParam).Entries
		revive := ps.first // the largest raw weight (ties: first)
		allZero := true
		for k := ps.first; k < ps.end; k++ {
			w := weights[k]
			if math.IsNaN(w) {
				return nil, fmt.Errorf("skeleton: weight %d (%s %s) is NaN", k, s.slots[k].Param, s.slots[k].Label)
			}
			if w > weights[revive] {
				revive = k
			}
			rounded := int(math.Round(min(max(w, 0), top)))
			entries[s.at[k].entry].Weight = rounded
			allZero = allZero && rounded == 0
		}
		if allZero {
			entries[s.at[revive].entry].Weight = 1
		}
	}
	if err := t.Validate(); err != nil {
		return nil, fmt.Errorf("skeleton: instantiated template invalid: %w", err)
	}
	return t, nil
}

// clone copies the base under another name in four allocations: the
// template, its parameter list, the parameters and all their entries.
func (s *Skeleton) clone(name string) *template.Template {
	t := &template.Template{Name: name, Params: make([]template.Param, len(s.base.Params))}
	wps := make([]template.WeightParam, len(s.base.Params))
	entries := make([]template.WeightEntry, 0, s.entries)
	for i, p := range s.base.Params {
		src := p.(*template.WeightParam)
		from := len(entries)
		entries = append(entries, src.Entries...)
		wps[i] = template.WeightParam{Name: src.Name, Entries: entries[from:len(entries):len(entries)]}
		t.Params[i] = &wps[i]
	}
	return t
}

// Weights recovers the slot weight vector from a template previously
// produced by Instantiate (or any template with matching parameters). It
// returns an error if a slot's parameter or entry is missing.
func (s *Skeleton) Weights(t *template.Template) ([]float64, error) {
	x := make([]float64, len(s.slots))
	for i, slot := range s.slots {
		wp := t.Weight(slot.Param)
		if wp == nil {
			return nil, fmt.Errorf("skeleton: template %q lacks weight parameter %q", t.Name, slot.Param)
		}
		e, ok := wp.Entry(slot.Label)
		if !ok {
			return nil, fmt.Errorf("skeleton: template %q parameter %q lacks entry %q", t.Name, slot.Param, slot.Label)
		}
		x[i] = float64(e.Weight)
	}
	return x, nil
}

// RandomWeights draws a uniform point in the search box [0, MaxWeight]^d;
// this is the sampling primitive of the random-sample phase (paper
// Section IV-D).
func (s *Skeleton) RandomWeights(r *rng.RNG) []float64 {
	x := make([]float64, len(s.slots))
	for i := range x {
		x[i] = r.Float64() * float64(s.opts.MaxWeight)
	}
	return x
}

// MarkedSource renders the skeleton in the paper's Fig. 1(b) form: the
// template source with every slot weight shown as the mark "<?>".
func (s *Skeleton) MarkedSource() string {
	// Rebuild instead of string-replacing the base's rendering to avoid
	// touching unmarked zero weights.
	var b strings.Builder
	fmt.Fprintf(&b, "template %s {\n", s.base.Name)
	idx := 0
	for pi, p := range s.base.Params {
		wp := p.(*template.WeightParam)
		fmt.Fprintf(&b, "    weight %s {\n", wp.Name)
		width := 0
		for _, e := range wp.Entries {
			if n := len(e.Label()); n > width {
				width = n
			}
		}
		for ei, e := range wp.Entries {
			if idx < len(s.at) && s.at[idx] == (position{param: pi, entry: ei}) {
				fmt.Fprintf(&b, "        %-*s <?>;\n", width+1, e.Label()+":")
				idx++
			} else {
				fmt.Fprintf(&b, "        %-*s %d;\n", width+1, e.Label()+":", e.Weight)
			}
		}
		b.WriteString("    }\n")
	}
	b.WriteString("}\n")
	return b.String()
}
