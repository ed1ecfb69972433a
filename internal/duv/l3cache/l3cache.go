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
	"math/bits"

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
	evEvict  [2]int // clean, dirty
	evThread [4]int // by ThreadSel code
	evRwitm, evFlush,
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
	u.evEvict = [2]int{m.MustLookup("l3_evict_clean"), m.MustLookup("l3_evict_dirty")}
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

// Each set keeps its numWays tags in one uint64, way w in the 16-bit
// lane w. An invalid way holds invalidTag, which no tag equals: a tag is
// below addrLines/numSets.
const (
	laneOnes   = 0x0001000100010001 // 1 in every lane
	laneHighs  = 0x8000800080008000 // the top bit of every lane
	invalidTag = 0xffff
	emptySet   = invalidTag * laneOnes
)

// A granted bypass request completes at most maxLatency cycles after its
// issue. The completion calendar counts the requests that fall due on
// cycle c in slot c&(calendarSlots-1). Completions are retired only at a
// grant decision, and a request is granted only at one, after it retires:
// every outstanding request falls due within maxLatency cycles after the
// last decision's cycle, so no two cycles an outstanding request can fall
// due on share a slot.
const (
	maxLatency    = bypassLatency + latencyJitter
	calendarSlots = 64
)

// Compile-time guards on the packing: a negative constant does not
// convert to uint.
const (
	_ = uint(calendarSlots - 1 - maxLatency)         // the calendar outspans every latency
	_ = uint(-(calendarSlots & (calendarSlots - 1))) // calendarSlots is a power of two
	_ = uint(invalidTag - addrLines/numSets)         // every tag is below invalidTag
	_ = uint(4-numWays) + uint(numWays-4)            // four lanes, four ways
)

// hitLanes returns a word whose lowest set bit is the top bit of the
// lowest lane of tags equal to tag, or 0 if no lane is: a lane of x is
// zero exactly where tags holds tag, and a zero lane's borrow can mark
// only lanes above it.
func hitLanes(tags uint64, tag int) uint64 {
	x := tags ^ uint64(tag)*laneOnes
	return (x - laneOnes) &^ x & laneHighs
}

// lruWay returns the way with the smallest LRU stamp, the lowest such
// way on a tie, as a scan from way 0 would: a two-round tournament in
// which the higher way wins only when strictly smaller.
func lruWay(s *[numWays]int32) int {
	a, b := 0, 2
	if s[1] < s[0] {
		a = 1
	}
	if s[3] < s[2] {
		b = 3
	}
	if s[b] < s[a] {
		return b
	}
	return a
}

// Simulate implements duv.DUV.
func (u *L3Cache) Simulate(g *generator.Generator) coverage.Vector {
	u.bind.Check(g)
	v := coverage.NewVectorFor(u.model)
	r := g.RNG()
	reqType, threadSel, bypassHint := g.Choice(u.hReqType), g.Choice(u.hThreadSel), g.Choice(u.hBypassHint)
	interArrival, locality := g.Ranges(u.hInterArrival), g.Ranges(u.hLocality)

	// The cache, per set: the packed tags, each way's LRU stamp (the
	// lruClock of its last use; 0 for an invalid way, which the victim
	// choice therefore takes first) and a bitmask of the dirty ways, a
	// subset of the valid ones.
	var tags [numSets]uint64
	for s := range tags {
		tags[s] = emptySet
	}
	var stamps [numSets][numWays]int32
	var dirty [numSets]uint8
	lruClock := int32(0)

	var history [historySize]int // recently touched lines, the first histLen valid
	histLen := 0
	var due [calendarSlots]uint8 // bypass completions per cycle, mod calendarSlots
	retired := 0                 // the last grant decision's cycle
	inFlight := 0
	maxInFlight := 0
	waitLeft := 0
	lastSet, lastSetCycle := -1, -1<<30

	for cycle := 0; cycle < simCycles; cycle++ {
		// Wait cycles make no draw, and completions are retired only at
		// the bypass grant decision, the one reader of inFlight: jump to
		// the cycle the wait ends on. A negative wait (a template's
		// negative range) is no wait.
		if waitLeft > 0 {
			if cycle += waitLeft; cycle >= simCycles {
				break
			}
			waitLeft = 0
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
			if dirty[s] != 0 {
				v.Set(u.evEvict[1])
			}
			tags[s], stamps[s], dirty[s] = emptySet, [numWays]int32{}, 0
			waitLeft = interArrival.Pick(r).Int(r)
			continue
		}

		// Address generation with tunable locality. One 32-bit draw w
		// picks both a recent line and a fresh one, each as Intn(n) would
		// pick it from w (rng.Intn scales 32 bits by n), and the locality
		// outcome keeps one by a mask, not a branch: the stream moves as
		// if only the kept one had been drawn.
		keep := 0 // all ones to keep the recent line
		if histLen > 0 && r.Intn(100) < locality.Pick(r).Int(r) {
			keep = -1
		}
		w := uint64(r.Intn(1 << 32))
		fresh, recent := int(w*addrLines>>32), history[w*uint64(histLen)>>32%historySize]
		line := fresh ^ (fresh^recent)&keep
		if histLen < historySize {
			history[histLen] = line
			histLen++
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
		kind := 0
		if isWrite {
			kind = 1
		}
		var dirties uint8 // 1 if the request dirties its line
		if isWrite || isRwitm {
			dirties = 1
		}

		// Lookup.
		lruClock++
		ways := &stamps[set]
		if match := hitLanes(tags[set], tag); match != 0 {
			v.Set(u.evHit[kind])
			way := bits.TrailingZeros64(match) >> 4
			ways[way] = lruClock
			dirty[set] |= dirties << way
		} else {
			v.Set(u.evMiss[kind])
			// Allocate: evict the LRU way.
			victim := lruWay(ways)
			if ways[victim] != 0 {
				v.Set(u.evEvict[dirty[set]>>victim&1])
			}
			lane := 16 * uint(victim)
			tags[set] = tags[set]&^(invalidTag<<lane) | uint64(tag)<<lane
			ways[victim] = lruClock
			dirty[set] = dirty[set]&^(1<<victim) | dirties<<victim

			// Bypass path: read-class misses with the hint on may go
			// straight to memory, occupying a bypass queue slot.
			if (req == u.reqRead || isRwitm) && bypassHint.Code(r) == u.hintOn {
				// Retire the requests due in (retired, cycle]. Every
				// outstanding request was granted at a decision, which
				// retired first, so it falls due within maxLatency cycles
				// after retired: a gap that long retires them all.
				if cycle-retired >= maxLatency {
					inFlight = 0
					due = [calendarSlots]uint8{}
				} else {
					for c := retired + 1; c <= cycle; c++ {
						inFlight -= int(due[c&(calendarSlots-1)])
						due[c&(calendarSlots-1)] = 0
					}
				}
				retired = cycle

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
					due[(cycle+lat)&(calendarSlots-1)]++
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
