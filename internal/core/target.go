package core

import (
	"errors"
	"fmt"
	"strings"

	"repro/internal/duv"
)

// Target is what a campaign chases, given as data: exactly one of
// Family, Cross or Events selects the mode, and the zero value of every
// other field selects its default. Run takes it whole, so no caller
// picks an entry point by mode.
type Target struct {
	// Family targets a buffer-utilization event family (the paper's
	// Figs. 3 and 4). Decay in (0, 1] weights the approximated target by
	// ordinal distance (0 selects 1, the paper's plain family sum);
	// Rounds is the number of refinement rounds (0 selects 1; a negative
	// count is refused).
	Family string
	Decay  float64
	Rounds int

	// Cross targets a cross product (the paper's IFU experiment); the
	// approximated target spans it uniformly.
	Cross string

	// Events targets an explicit event list. Its approximated target is
	// mined from the repository by hit-profile correlation, keeping the
	// events whose cosine similarity is at least MinSim (<= 0 selects
	// 0.5).
	Events []string
	MinSim float64
}

// Validate is the one check of a target against the unit it is to run
// on: exactly one mode, a family, cross product or events the unit's
// coverage model has, a decay of 0 or in (0, 1] and a round count of at
// least 0. Its errors carry no package prefix; Run reports them as
// "core: ...", a service's admission as a rejected spec.
func (t Target) Validate(unit duv.DUV) error {
	modes := 0
	for _, set := range []bool{t.Family != "", t.Cross != "", len(t.Events) > 0} {
		if set {
			modes++
		}
	}
	if modes != 1 {
		return errors.New("exactly one of family, cross or events is required")
	}
	model := unit.Model()
	if _, ok := model.Family(t.Family); t.Family != "" && !ok {
		return fmt.Errorf("unit %q has no family %q (families: %s)",
			unit.Name(), t.Family, nameList(model.FamilyNames()))
	}
	if _, ok := model.Cross(t.Cross); t.Cross != "" && !ok {
		return fmt.Errorf("unit %q has no cross product %q (cross products: %s)",
			unit.Name(), t.Cross, nameList(model.CrossNames()))
	}
	if _, err := model.IDs(t.Events); err != nil {
		return fmt.Errorf("unit %q: %w", unit.Name(), err)
	}
	if t.Decay != 0 && !(t.Decay > 0 && t.Decay <= 1) {
		return fmt.Errorf("decay %v outside (0, 1]", t.Decay)
	}
	if t.Rounds < 0 {
		return fmt.Errorf("rounds %d is negative", t.Rounds)
	}
	return nil
}

// nameList renders the names a rejection offers instead.
func nameList(names []string) string {
	if len(names) == 0 {
		return "none"
	}
	return strings.Join(names, ", ")
}

func (t Target) decay() float64 {
	if t.Decay == 0 {
		return 1
	}
	return t.Decay
}

func (t Target) rounds() int {
	if t.Rounds == 0 {
		return 1
	}
	return t.Rounds
}

func (t Target) minSim() float64 {
	if t.MinSim <= 0 {
		return 0.5
	}
	return t.MinSim
}

// String names the target's mode and subject: "family:crc_fifo",
// "cross:ifu" or "events:byp_reqs03,byp_reqs04".
func (t Target) String() string {
	switch {
	case t.Family != "":
		return "family:" + t.Family
	case t.Cross != "":
		return "cross:" + t.Cross
	default:
		return "events:" + strings.Join(t.Events, ",")
	}
}
