// Bring-your-own-DUV: plug a custom design model and its regression
// suite into the AS-CDG flow.
//
//	go run ./examples/customduv
//
// The paper stresses that AS-CDG is black-box and DUV-independent: any
// verification environment with parametrized test-templates can use it
// unchanged. This example shows the full adopter's checklist on a small
// arbiter model:
//
//  1. define a coverage model (here: grant-streak events forming an
//     ordered family),
//  2. declare defaults and a base regression suite in the template
//     language,
//  3. bind, once, in the constructor: every parameter name to a
//     generator.Handle, every symbolic value to its vocabulary code,
//     every event name to its ID,
//  4. implement duv.DUV — Simulate consults the generator, by handle,
//     for every random decision it makes, and touches no string,
//  5. hand the unit to core.New and run.
package main

import (
	"context"

	"fmt"
	"log"

	"repro/internal/core"
	"repro/internal/coverage"
	"repro/internal/duv"
	"repro/internal/generator"
	"repro/internal/template"
)

// arbiter models a 4-requester round-robin arbiter with a priority
// override. Coverage tracks how many consecutive grants one requester
// can hoard (streak_02 .. streak_16): hoarding requires skewed request
// weights plus the priority override, which default traffic never
// combines.
type arbiter struct {
	model    *coverage.Model
	defaults generator.Defaults
	base     []*template.Template

	// Bound once in newArbiter; Simulate only indexes.
	bind                                *generator.Binding
	hReqMix, hPrioOverride, hBurstiness generator.Handle
	requesterOf                         [4]int // ReqMix code -> requester
	prioOn                              int    // PrioOverride code of "on"

	evStreak                                 [len(streakDepths)]int
	evGranted                                [4]int
	evPrioUsed, evIdleCycle, evAllRequesting int
}

// streakDepths are the grant-streak lengths the family's events mark.
var streakDepths = [...]int{2, 4, 8, 12, 16}

const streakFamily = "grant_streaks"

func newArbiter() *arbiter {
	names := []string{"streak_02", "streak_04", "streak_08", "streak_12", "streak_16"}
	names = append(names,
		"arb_r0_granted", "arb_r1_granted", "arb_r2_granted", "arb_r3_granted",
		"arb_prio_used", "arb_idle_cycle", "arb_all_requesting",
	)
	m := coverage.MustModel(names)
	if err := m.AddFamily(streakFamily, names[:5]); err != nil {
		panic(err)
	}
	u := &arbiter{model: m}

	defaults, err := template.Parse(`
template arb_defaults {
    weight ReqMix {
        r0: 25;
        r1: 25;
        r2: 25;
        r3: 25;
    }
    weight PrioOverride {
        on:  5;
        off: 95;
    }
    range Burstiness [0 : 3];
}
`)
	if err != nil {
		panic(err)
	}
	u.defaults = duv.DefaultsFromTemplate(defaults)
	u.base = duv.MustParseTemplates(`
template arb_regress {
    weight ReqMix {
        r0: 25;
        r1: 25;
        r2: 25;
        r3: 25;
    }
}
`, `
template arb_hotspot {
    weight ReqMix {
        r0: 70;
        r1: 10;
        r2: 10;
        r3: 10;
    }
    weight PrioOverride {
        on:  20;
        off: 80;
    }
    range Burstiness [0 : 7];
}
`)

	bind := generator.Bind(u.defaults)
	u.bind = bind
	u.hReqMix = bind.Handle("ReqMix")
	u.hPrioOverride = bind.Handle("PrioOverride")
	u.hBurstiness = bind.Handle("Burstiness")
	u.prioOn = bind.Code("PrioOverride", "on")
	for i := range u.requesterOf {
		u.requesterOf[bind.Code("ReqMix", fmt.Sprintf("r%d", i))] = i
		u.evGranted[i] = m.MustLookup(fmt.Sprintf("arb_r%d_granted", i))
	}
	for i, depth := range streakDepths {
		u.evStreak[i] = m.MustLookup(fmt.Sprintf("streak_%02d", depth))
	}
	u.evPrioUsed = m.MustLookup("arb_prio_used")
	u.evIdleCycle = m.MustLookup("arb_idle_cycle")
	u.evAllRequesting = m.MustLookup("arb_all_requesting")
	return u
}

func (u *arbiter) Name() string                 { return "arbiter" }
func (u *arbiter) Model() *coverage.Model       { return u.model }
func (u *arbiter) Defaults() generator.Defaults { return u.defaults }
func (u *arbiter) BaseTemplates() []*template.Template {
	out := make([]*template.Template, len(u.base))
	for i, t := range u.base {
		out[i] = t.Clone()
	}
	return out
}

func (u *arbiter) Simulate(g *generator.Generator) coverage.Vector {
	u.bind.Check(g) // g must be compiled over u.Defaults()
	v := coverage.NewVectorFor(u.model)
	r := g.RNG()
	// Fetch the deciders once, before the loop: the kind of each setting
	// is checked here, and in the loop a decision is a few inlined
	// instructions over locals.
	reqMix, prioOverride := g.Choice(u.hReqMix), g.Choice(u.hPrioOverride)
	burstiness := g.Ranges(u.hBurstiness)
	lastGrant, streak, maxStreak := -1, 0, 0
	rr := 0
	for cycle := 0; cycle < 600; cycle++ {
		// Each requester raises its line with a probability shaped by
		// ReqMix and Burstiness.
		var req [4]bool
		burst := burstiness.Pick(r).Int(r)
		any := false
		all := true
		for i := 0; i < 4; i++ {
			want := u.requesterOf[reqMix.Code(r)] == i
			// Burstiness keeps lines asserted for longer runs.
			req[i] = want || (burst > 0 && r.Bool(float64(burst)/10))
			any = any || req[i]
			all = all && req[i]
		}
		if all {
			v.Set(u.evAllRequesting)
		}
		if !any {
			v.Set(u.evIdleCycle)
			continue
		}
		// Priority override lets the last winner keep the grant.
		grant := -1
		if lastGrant >= 0 && req[lastGrant] && prioOverride.Code(r) == u.prioOn {
			grant = lastGrant
			v.Set(u.evPrioUsed)
		} else {
			for i := 0; i < 4; i++ {
				cand := (rr + i) % 4
				if req[cand] {
					grant = cand
					break
				}
			}
			rr = (grant + 1) % 4
		}
		v.Set(u.evGranted[grant])
		if grant == lastGrant {
			streak++
		} else {
			streak = 1
		}
		lastGrant = grant
		if streak > maxStreak {
			maxStreak = streak
		}
	}
	for i, depth := range streakDepths {
		if maxStreak >= depth {
			v.Set(u.evStreak[i])
		}
	}
	return v
}

func main() {
	unit := newArbiter()
	flow, err := core.New(unit, core.Config{
		Seed:                  11,
		CorpusSimsPerTemplate: 1500,
		SampleTemplates:       40,
		SampleSims:            60,
		OptIterations:         8,
		OptDirections:         8,
		OptSims:               80,
		BestSims:              1500,
	})
	if err != nil {
		log.Fatal(err)
	}
	reports, err := flow.Run(context.Background(), core.Target{Family: streakFamily, Decay: 0.5, Rounds: 2})
	if err != nil {
		log.Fatal(err)
	}
	final := reports[len(reports)-1]
	fmt.Print(final.Summary(unit.Model()))
	fmt.Println()
	table, err := final.FormatFamilyTable(unit.Model(), streakFamily)
	if err != nil {
		log.Fatal(err)
	}
	fmt.Println(table)
	fmt.Println("harvested test-template:")
	fmt.Print(final.BestTemplate.String())
}
