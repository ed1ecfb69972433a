// Package ifu implements a behavioral model of an instruction fetch
// unit whose coverage model is the paper's Fig. 5 cross product: 256
// events over entry(0-7) x thread(0-3) x sector(0-3) x branch(0-1).
//
// The model substitutes for the proprietary IBM IFU (DESIGN.md,
// substitution table). Two structural properties matter:
//
//   - an event is hit when a fetch lands in a given fetch-queue entry,
//     for a given thread, from a given address sector, with or without a
//     branch — so coverage requires steering four orthogonal stimuli
//     dimensions at once;
//   - the fetch engine's flow control refuses to fetch into a queue
//     already holding 7 entries, so entry-7 events can never be hit.
//     Those 32 events reproduce the paper's finding that a whole slice of
//     a cross product can be beyond the unit's capabilities, which
//     AS-CDG surfaces rather than hides (Section V).
package ifu

import (
	"fmt"

	"repro/internal/coverage"
	"repro/internal/duv"
	"repro/internal/generator"
	"repro/internal/rng"
	"repro/internal/template"
)

// Model constants.
const (
	simCycles  = 1600
	numEntries = 8 // queue entries per thread (entry 7 unreachable)
	numThreads = 4
	numSectors = 4
	fetchStop  = 7 // flow control: no fetch when occupancy >= fetchStop
)

// CrossName is the registered name of the cross product.
const CrossName = "ifu"

// UnitName is the registry name of this unit.
const UnitName = "ifu"

func init() {
	duv.Register(UnitName, func() duv.DUV { return New() })
}

// IFU is the behavioral fetch-unit model. One instance is safe for
// concurrent Simulate calls.
type IFU struct {
	model    *coverage.Model
	defaults generator.Defaults
	base     []*template.Template
	cross    *coverage.CrossProduct

	// Generator handles, bound once at construction, and the meaning of
	// each ThreadSel and BranchMix vocabulary code.
	bind                                                              *generator.Binding
	hThreadSel, hFetchAddr, hBranchMix, hRedirectRate, hDispatchStall generator.Handle
	threadOf                                                          [numThreads]int
	branchOf                                                          [2]int // 1 = "br"

	// crossIDs[entry][thread][sector][branch] -> event ID.
	crossIDs                           [numEntries][numThreads][numSectors][2]int
	evRedirect, evQueueHigh, evStarved int
}

// New constructs the IFU model.
func New() *IFU {
	dims := []coverage.Dim{
		{Name: "entry", Values: values("e", numEntries)},
		{Name: "thread", Values: values("t", numThreads)},
		{Name: "sector", Values: values("s", numSectors)},
		{Name: "branch", Values: []string{"seq", "br"}},
	}
	cp, err := coverage.NewCrossProduct(CrossName, dims)
	if err != nil {
		panic(err)
	}
	names := cp.EventNames()
	names = append(names, "ifu_redirect_seen", "ifu_queue_high", "ifu_thread_starved")
	m := coverage.MustModel(names)
	if err := m.AddCross(cp); err != nil {
		panic(err)
	}

	u := &IFU{model: m, cross: cp}
	for e := 0; e < numEntries; e++ {
		for t := 0; t < numThreads; t++ {
			for s := 0; s < numSectors; s++ {
				for b := 0; b < 2; b++ {
					u.crossIDs[e][t][s][b] = m.MustLookup(cp.EventName([]int{e, t, s, b}))
				}
			}
		}
	}
	u.evRedirect = m.MustLookup("ifu_redirect_seen")
	u.evQueueHigh = m.MustLookup("ifu_queue_high")
	u.evStarved = m.MustLookup("ifu_thread_starved")

	u.defaults = duv.DefaultsFromTemplate(duv.MustParseTemplates(defaultsSource)[0])
	u.base = duv.MustParseTemplates(baseSources...)

	bind := generator.Bind(u.defaults)
	u.bind = bind
	u.hThreadSel = bind.Handle("ThreadSel")
	u.hFetchAddr = bind.Handle("FetchAddr")
	u.hBranchMix = bind.Handle("BranchMix")
	u.hRedirectRate = bind.Handle("RedirectRate")
	u.hDispatchStall = bind.Handle("DispatchStall")
	for t, name := range values("t", numThreads) {
		u.threadOf[bind.Code("ThreadSel", name)] = t
	}
	u.branchOf[bind.Code("BranchMix", "br")] = 1
	return u
}

func values(prefix string, n int) []string {
	vs := make([]string, n)
	for i := range vs {
		vs[i] = fmt.Sprintf("%s%d", prefix, i)
	}
	return vs
}

// Name implements duv.DUV.
func (u *IFU) Name() string { return UnitName }

// Model implements duv.DUV.
func (u *IFU) Model() *coverage.Model { return u.model }

// Cross returns the unit's cross product definition.
func (u *IFU) Cross() *coverage.CrossProduct { return u.cross }

// Defaults implements duv.DUV.
func (u *IFU) Defaults() generator.Defaults { return u.defaults }

// BaseTemplates implements duv.DUV.
func (u *IFU) BaseTemplates() []*template.Template {
	out := make([]*template.Template, len(u.base))
	for i, t := range u.base {
		out[i] = t.Clone()
	}
	return out
}

// Simulate implements duv.DUV.
func (u *IFU) Simulate(g *generator.Generator) coverage.Vector {
	u.bind.Check(g)
	v := coverage.NewVectorFor(u.model)
	// The type is spelled out for the import: a method of the stream
	// (r.Intn below) inlines only where the compiler has its body, which
	// is in the packages that import rng themselves.
	var r *rng.RNG = g.RNG()
	threadSel, branchMix := g.Choice(u.hThreadSel), g.Choice(u.hBranchMix)
	fetchAddr, redirectRate, dispatchStall := g.Ranges(u.hFetchAddr), g.Ranges(u.hRedirectRate), g.Ranges(u.hDispatchStall)

	var occ [numThreads]int // fetch queue occupancy per thread
	dispatchThread := 0     // round-robin dispatch pointer
	dispatchWait := 0
	starvedRun := 0

	for cycle := 0; cycle < simCycles; cycle++ {
		// Fetch stage: one fetch attempt per cycle on a chosen thread.
		thread := u.threadOf[threadSel.Code(r)]
		if occ[thread] < fetchStop {
			addr := fetchAddr.Pick(r).Int(r)
			sector := (addr >> 14) & 3
			branch := u.branchOf[branchMix.Code(r)]
			entry := occ[thread]
			v.Set(u.crossIDs[entry][thread][sector][branch])
			occ[thread]++
			if occ[thread] >= 6 {
				v.Set(u.evQueueHigh)
			}

			// A branch may redirect the front end, flushing the queue of
			// the fetching thread.
			if branch == 1 && r.Intn(100) < redirectRate.Pick(r).Int(r) {
				v.Set(u.evRedirect)
				occ[thread] = 0
			}
			starvedRun = 0
		} else {
			starvedRun++
			if starvedRun >= 32 {
				v.Set(u.evStarved)
			}
		}

		// Dispatch stage: a 2-wide dispatch fires every 1+DispatchStall
		// cycles, draining the next non-empty threads round-robin. At
		// zero stall, dispatch bandwidth (2/cycle) exceeds the fetch
		// bandwidth (1/cycle), so queues only build up under stall
		// pressure.
		if dispatchWait > 0 {
			dispatchWait--
		} else {
			for slot := 0; slot < 2; slot++ {
				for i := 0; i < numThreads; i++ {
					t := (dispatchThread + i) % numThreads
					if occ[t] > 0 {
						occ[t]--
						dispatchThread = (t + 1) % numThreads
						break
					}
				}
			}
			dispatchWait = dispatchStall.Pick(r).Int(r)
		}
	}
	return v
}

// defaultsSource declares the unit's default parameter behavior. The
// default thread selection is heavily biased toward thread 0 and the
// default fetch window covers only the first address sector — everyday
// regression traffic therefore leaves most of the cross product dark.
const defaultsSource = `
template ifu_defaults {
    weight ThreadSel {
        t0: 70;
        t1: 10;
        t2: 10;
        t3: 10;
    }
    range FetchAddr [0 : 16383];
    weight BranchMix {
        seq: 80;
        br:  20;
    }
    range DispatchStall [0 : 1];
    range RedirectRate [20 : 40];
}
`

// baseSources is the unit's pre-existing regression suite.
var baseSources = []string{
	`
template ifu_regress_default {
    weight ThreadSel {
        t0: 70;
        t1: 10;
        t2: 10;
        t3: 10;
    }
}
`, `
template ifu_thread0_focus {
    weight ThreadSel {
        t0: 100;
        t1: 0;
        t2: 0;
        t3: 0;
    }
    range FetchAddr [0 : 16383];
}
`, `
template ifu_branchy {
    weight BranchMix {
        seq: 30;
        br:  70;
    }
    range RedirectRate [40 : 60];
}
`, `
template ifu_smt_balance {
    weight ThreadSel {
        t0: 25;
        t1: 25;
        t2: 25;
        t3: 25;
    }
    range FetchAddr [0 : 65535];
    weight BranchMix {
        seq: 60;
        br:  40;
    }
    range DispatchStall [0 : 1];
    range RedirectRate [5 : 20];
}
`, `
template ifu_backpressure {
    range DispatchStall [2 : 6];
    range RedirectRate [0 : 10];
}
`,
}
