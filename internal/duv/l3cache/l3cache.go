// Package l3cache implements a behavioral model of a processor L3 cache
// unit with a memory-bypass path. The number of simultaneously
// outstanding bypass requests drives the paper's Fig. 4 family of
// coverage events (byp_reqs01 .. byp_reqs16).
//
// The model substitutes for the proprietary IBM L3 unit (DESIGN.md,
// substitution table) while preserving the structure AS-CDG exploits:
// a 16-step ordered family with a long, steeply falling tail. Deep
// concurrency requires many bypass-eligible misses inside one request
// latency window, and a grant arbiter whose win probability falls with
// queue occupancy keeps the deepest levels rare even under ideal
// stimuli — the paper's best test hits byp_reqs16 only 0.1% of the time.
package l3cache

import (
	"fmt"

	"repro/internal/coverage"
	"repro/internal/duv"
	"repro/internal/generator"
	"repro/internal/rng"
	"repro/internal/template"
)

// Cache geometry and bypass-path constants. Calibrated against the
// paper's Fig. 4 shape; see EXPERIMENTS.md.
const (
	simCycles   = 2000
	numSets     = 64
	numWays     = 4
	addrLines   = 1 << 14 // distinct cache lines the stimuli may touch
	historySize = 16      // recently-touched lines reusable for locality

	bypassQueueCap = 16
	bypassLatency  = 30   // cycles a bypass request stays in flight
	latencyJitter  = 10   // +/- uniform jitter on the latency
	grantKnee      = 14.0 // occupancy at which the grant probability bottoms out
	grantFloor     = 0.05
)

// FamilyName is the registered name of the byp_reqs* family.
const FamilyName = "byp_reqs"

// UnitName is the registry name of this unit.
const UnitName = "l3cache"

func init() {
	duv.Register(UnitName, func() duv.DUV { return New() })
}

// L3Cache is the behavioral L3 model. One instance is safe for
// concurrent Simulate calls: the cache state is per-simulation.
type L3Cache struct {
	model    *coverage.Model
	defaults generator.Defaults
	base     []*template.Template

	// Generator handles and vocabulary codes, bound once at construction.
	bind                                                        *generator.Binding
	hReqType, hThreadSel, hBypassHint, hInterArrival, hLocality generator.Handle
	reqRead, reqWrite, reqRwitm, reqFlush, reqNop, hintOn       int

	// grantBelow[n] is the integer form (rng.Threshold) of the arbiter's
	// grant probability with n requests in flight.
	grantBelow [bypassQueueCap]uint64

	bypIDs   [bypassQueueCap]int
	evHit    [2]int // read-class, write
	evMiss   [2]int
	evThread [4]int // by ThreadSel code
	evRwitm, evFlush,
	evEvictClean, evEvictDirty,
	evSetConflict, evBypDenied, evQueueFull int
}

// New constructs the L3 cache model.
func New() *L3Cache {
	var names []string
	for i := 1; i <= bypassQueueCap; i++ {
		names = append(names, fmt.Sprintf("byp_reqs%02d", i))
	}
	names = append(names,
		"l3_hit_read", "l3_hit_write",
		"l3_miss_read", "l3_miss_write",
		"l3_rwitm_seen", "l3_flush_seen",
		"l3_t0_active", "l3_t1_active", "l3_t2_active", "l3_t3_active",
		"l3_evict_clean", "l3_evict_dirty",
		"l3_set_conflict", "l3_bypass_denied", "l3_queue_full",
	)
	m := coverage.MustModel(names)
	fam := names[:bypassQueueCap]
	if err := m.AddFamily(FamilyName, fam); err != nil {
		panic(err)
	}

	u := &L3Cache{model: m}
	u.defaults = duv.DefaultsFromTemplate(duv.MustParseTemplates(defaultsSource)[0])
	u.base = duv.MustParseTemplates(baseSources...)

	bind := generator.Bind(u.defaults)
	u.bind = bind
	u.hReqType = bind.Handle("ReqType")
	u.hThreadSel = bind.Handle("ThreadSel")
	u.hBypassHint = bind.Handle("BypassHint")
	u.hInterArrival = bind.Handle("InterArrival")
	u.hLocality = bind.Handle("Locality")
	u.reqRead = bind.Code("ReqType", "read")
	u.reqWrite = bind.Code("ReqType", "write")
	u.reqRwitm = bind.Code("ReqType", "rwitm")
	u.reqFlush = bind.Code("ReqType", "flush")
	u.reqNop = bind.Code("ReqType", "nop")
	u.hintOn = bind.Code("BypassHint", "on")

	for i := 0; i < bypassQueueCap; i++ {
		u.bypIDs[i] = m.MustLookup(fmt.Sprintf("byp_reqs%02d", i+1))
		grant := 1 - float64(i)/grantKnee
		if grant < grantFloor {
			grant = grantFloor
		}
		u.grantBelow[i] = rng.Threshold(grant)
	}
	u.evHit = [2]int{m.MustLookup("l3_hit_read"), m.MustLookup("l3_hit_write")}
	u.evMiss = [2]int{m.MustLookup("l3_miss_read"), m.MustLookup("l3_miss_write")}
	for t := 0; t < 4; t++ {
		u.evThread[bind.Code("ThreadSel", fmt.Sprintf("t%d", t))] = m.MustLookup(fmt.Sprintf("l3_t%d_active", t))
	}
	u.evRwitm = m.MustLookup("l3_rwitm_seen")
	u.evFlush = m.MustLookup("l3_flush_seen")
	u.evEvictClean = m.MustLookup("l3_evict_clean")
	u.evEvictDirty = m.MustLookup("l3_evict_dirty")
	u.evSetConflict = m.MustLookup("l3_set_conflict")
	u.evBypDenied = m.MustLookup("l3_bypass_denied")
	u.evQueueFull = m.MustLookup("l3_queue_full")
	return u
}

// Name implements duv.DUV.
func (u *L3Cache) Name() string { return UnitName }

// Model implements duv.DUV.
func (u *L3Cache) Model() *coverage.Model { return u.model }

// Defaults implements duv.DUV.
func (u *L3Cache) Defaults() generator.Defaults { return u.defaults }

// BaseTemplates implements duv.DUV.
func (u *L3Cache) BaseTemplates() []*template.Template {
	out := make([]*template.Template, len(u.base))
	for i, t := range u.base {
		out[i] = t.Clone()
	}
	return out
}

// cacheLine is one way of a set.
type cacheLine struct {
	tag   int
	valid bool
	dirty bool
	lru   int // higher = more recently used
}

// Simulate implements duv.DUV.
func (u *L3Cache) Simulate(g *generator.Generator) coverage.Vector {
	u.bind.Check(g)
	v := coverage.NewVectorFor(u.model)
	r := g.RNG()
	reqType, threadSel, bypassHint := g.Choice(u.hReqType), g.Choice(u.hThreadSel), g.Choice(u.hBypassHint)
	interArrival, locality := g.Ranges(u.hInterArrival), g.Ranges(u.hLocality)

	var sets [numSets][numWays]cacheLine
	lruClock := 0

	// Fixed arrays in the frame: the history never outgrows historySize
	// and at most bypassQueueCap requests are in flight.
	var historyBuf [historySize]int
	var completionsBuf [bypassQueueCap]int
	history := historyBuf[:0] // recently touched lines
	completions := completionsBuf[:0]
	nextDue := simCycles // earliest completion; simCycles while none can fall due
	inFlight := 0
	maxInFlight := 0
	waitLeft := 0
	lastSet, lastSetCycle := -1, -1<<30

	for cycle := 0; cycle < simCycles; cycle++ {
		// Wait cycles make no draw, and retiring only lowers inFlight,
		// which only the issue step reads: jump to the cycle the wait
		// ends on, where one retirement covers every completion that fell
		// due during the wait. A negative wait (a template's negative
		// range) is no wait.
		if waitLeft > 0 {
			if cycle += waitLeft; cycle >= simCycles {
				break
			}
			waitLeft = 0
		}

		// Retire finished bypass requests, once the earliest is due: until
		// then no request has finished and inFlight stands.
		if cycle >= nextDue {
			n := 0
			nextDue = simCycles
			for _, c := range completions {
				if c > cycle {
					completions[n] = c
					n++
					nextDue = min(nextDue, c)
				} else {
					inFlight--
				}
			}
			completions = completions[:n]
		}

		// Issue one request.
		req := reqType.Code(r)
		v.Set(u.evThread[threadSel.Code(r)])

		if req == u.reqNop {
			waitLeft = interArrival.Pick(r).Int(r)
			continue
		}
		if req == u.reqFlush {
			v.Set(u.evFlush)
			// Flush invalidates one random set.
			s := r.Intn(numSets)
			for w := range sets[s] {
				if sets[s][w].valid && sets[s][w].dirty {
					v.Set(u.evEvictDirty)
				}
				sets[s][w] = cacheLine{}
			}
			waitLeft = interArrival.Pick(r).Int(r)
			continue
		}

		// Address generation with tunable locality.
		var line int
		if len(history) > 0 && r.Intn(100) < locality.Pick(r).Int(r) {
			line = history[r.Intn(len(history))]
		} else {
			line = r.Intn(addrLines)
		}
		if len(history) < historySize {
			history = append(history, line)
		} else {
			history[r.Intn(historySize)] = line
		}

		set := line % numSets
		tag := line / numSets
		if set == lastSet && cycle-lastSetCycle <= 4 {
			v.Set(u.evSetConflict)
		}
		lastSet, lastSetCycle = set, cycle

		isWrite := req == u.reqWrite
		isRwitm := req == u.reqRwitm
		if isRwitm {
			v.Set(u.evRwitm)
		}

		// Lookup.
		lruClock++
		hitWay := -1
		for w := range sets[set] {
			if sets[set][w].valid && sets[set][w].tag == tag {
				hitWay = w
				break
			}
		}
		kind := 0
		if isWrite {
			kind = 1
		}
		if hitWay >= 0 {
			v.Set(u.evHit[kind])
			sets[set][hitWay].lru = lruClock
			if isWrite || isRwitm {
				sets[set][hitWay].dirty = true
			}
		} else {
			v.Set(u.evMiss[kind])
			// Allocate: evict the LRU way.
			victim := 0
			for w := 1; w < numWays; w++ {
				if sets[set][w].lru < sets[set][victim].lru {
					victim = w
				}
			}
			if sets[set][victim].valid {
				if sets[set][victim].dirty {
					v.Set(u.evEvictDirty)
				} else {
					v.Set(u.evEvictClean)
				}
			}
			sets[set][victim] = cacheLine{
				tag: tag, valid: true,
				dirty: isWrite || isRwitm,
				lru:   lruClock,
			}

			// Bypass path: read-class misses with the hint on may go
			// straight to memory, occupying a bypass queue slot.
			if (req == u.reqRead || isRwitm) && bypassHint.Code(r) == u.hintOn {
				switch {
				case inFlight >= bypassQueueCap:
					v.Set(u.evQueueFull)
					v.Set(u.evBypDenied)
				case r.Below(u.grantBelow[inFlight]):
					inFlight++
					if inFlight > maxInFlight {
						maxInFlight = inFlight
					}
					lat := bypassLatency + r.Intn(2*latencyJitter+1) - latencyJitter
					completions = append(completions, cycle+lat)
					nextDue = min(nextDue, cycle+lat)
				default:
					v.Set(u.evBypDenied)
				}
			}
		}

		waitLeft = interArrival.Pick(r).Int(r)
	}

	for i := 0; i < bypassQueueCap; i++ {
		if maxInFlight >= i+1 {
			v.Set(u.bypIDs[i])
		}
	}
	return v
}

// defaultsSource declares the unit's default parameter behavior.
const defaultsSource = `
template l3_defaults {
    weight ReqType {
        read:  50;
        write: 30;
        rwitm: 10;
        flush: 5;
        nop:   5;
    }
    weight BypassHint {
        on:  10;
        off: 90;
    }
    weight ThreadSel {
        t0: 25;
        t1: 25;
        t2: 25;
        t3: 25;
    }
    range InterArrival [0 : 15];
    range Locality [40 : 90];
}
`

// baseSources is the unit's pre-existing regression suite.
var baseSources = []string{
	`
template l3_regress_default {
    weight ReqType {
        read:  50;
        write: 30;
        rwitm: 10;
        flush: 5;
        nop:   5;
    }
}
`, `
template l3_read_share {
    weight ReqType {
        read:  80;
        write: 10;
        rwitm: 5;
        flush: 0;
        nop:   5;
    }
    range Locality [70 : 95];
}
`, `
template l3_write_storm {
    weight ReqType {
        read:  10;
        write: 75;
        rwitm: 10;
        flush: 5;
        nop:   0;
    }
    range InterArrival [0 : 7];
    range Locality [10 : 50];
}
`, `
template l3_rwitm_mix {
    weight ReqType {
        read:  40;
        write: 20;
        rwitm: 35;
        flush: 0;
        nop:   5;
    }
    range Locality [30 : 70];
}
`, `
template l3_bypass_probe {
    weight ReqType {
        read:  70;
        write: 10;
        rwitm: 15;
        flush: 0;
        nop:   5;
    }
    weight BypassHint {
        on:  40;
        off: 60;
    }
    range InterArrival [0 : 7];
    range Locality [20 : 60];
}
`, `
template l3_flush_noise {
    weight ReqType {
        read:  40;
        write: 25;
        rwitm: 5;
        flush: 25;
        nop:   5;
    }
}
`,
}
