// Package duv defines the design-under-verification abstraction of the
// AS-CDG reproduction and a registry of the built-in behavioral unit
// models.
//
// The paper evaluates AS-CDG on units of IBM high-end processors whose
// simulators and coverage traces are proprietary. This repository
// substitutes behavioral Go models of comparable units (an I/O unit, an
// L3 cache, an instruction fetch unit) that expose the same contract the
// flow relies on: a parametrized biased-random stimuli stream drives the
// unit for a bounded number of cycles and a coverage vector falls out.
// The flow itself stays black-box (paper Section I): it never inspects a
// model's internals, only templates in and coverage out.
package duv

import (
	"fmt"
	"sort"

	"repro/internal/coverage"
	"repro/internal/generator"
	"repro/internal/template"
)

// DUV is one design-under-verification: a behavioral model with a
// coverage model, default parameter behavior, and a pre-existing
// regression suite of test-templates.
type DUV interface {
	// Name returns the unit's registry name.
	Name() string
	// Model returns the unit's coverage model.
	Model() *coverage.Model
	// Defaults returns the default behavior of every generator parameter
	// the unit consults.
	Defaults() generator.Defaults
	// BaseTemplates returns the unit's existing regression suite — the
	// test-templates the verification team wrote over the project's
	// lifetime (paper Section IV-B). The coarse-grained search mines
	// these.
	BaseTemplates() []*template.Template
	// Simulate runs one test-instance (the generator is bound to a
	// template and a seed) and returns its coverage vector. g must be
	// compiled over Defaults(), which the unit must not change after
	// construction: the unit decides by handles bound to those defaults
	// (generator.Binding.Check).
	Simulate(g *generator.Generator) coverage.Vector
}

// factories holds the registered DUV constructors.
var factories = map[string]func() DUV{}

// Register adds a DUV constructor under the given name. It panics on a
// duplicate name; registration happens from init functions.
func Register(name string, f func() DUV) {
	if _, dup := factories[name]; dup {
		panic(fmt.Sprintf("duv: duplicate registration of %q", name))
	}
	factories[name] = f
}

// New constructs the named DUV.
func New(name string) (DUV, error) {
	f, ok := factories[name]
	if !ok {
		return nil, fmt.Errorf("duv: unknown unit %q (have %v)", name, Names())
	}
	return f(), nil
}

// Names returns the registered unit names, sorted.
func Names() []string {
	names := make([]string, 0, len(factories))
	for n := range factories {
		names = append(names, n)
	}
	sort.Strings(names)
	return names
}

// DefaultsFromTemplate converts a template's parameters into a Defaults
// map — a convenient way for a unit model to declare its default
// behavior in the template language itself.
func DefaultsFromTemplate(t *template.Template) generator.Defaults {
	d := generator.Defaults{}
	for _, p := range t.Params {
		d[p.ParamName()] = p
	}
	return d
}

// MustParseTemplates parses a list of template sources, panicking on any
// error; intended for the statically-known base suites of unit models.
func MustParseTemplates(srcs ...string) []*template.Template {
	out := make([]*template.Template, len(srcs))
	for i, src := range srcs {
		t, err := template.Parse(src)
		if err != nil {
			panic(fmt.Sprintf("duv: bad built-in template %d: %v", i, err))
		}
		out[i] = t
	}
	return out
}
