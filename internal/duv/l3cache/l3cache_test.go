package l3cache

import (
	"fmt"
	"testing"

	"repro/internal/coverage"
	"repro/internal/duv/duvtest"
	"repro/internal/generator"
	"repro/internal/rng"
	"repro/internal/skeleton"
	"repro/internal/template"
)

func runMany(u *L3Cache, tmpl *template.Template, n int, seed uint64) *coverage.Counts {
	c := coverage.NewCountsFor(u.Model())
	base := rng.New(seed)
	for i := 0; i < n; i++ {
		g := generator.New(tmpl, u.Defaults(), base.SplitIndex(uint64(i)).Uint64())
		c.Add(u.Simulate(g))
	}
	return c
}

func findBase(t testing.TB, u *L3Cache, name string) *template.Template {
	t.Helper()
	for _, b := range u.BaseTemplates() {
		if b.Name == name {
			return b
		}
	}
	t.Fatalf("base template %q not found", name)
	return nil
}

// optimalTemplate is a hand-built near-ideal bypass-stress template.
func optimalTemplate(t *testing.T) *template.Template {
	t.Helper()
	tmpl, err := template.Parse(`
template l3_optimal {
    weight ReqType {
        read:  80;
        write: 0;
        rwitm: 20;
        flush: 0;
        nop:   0;
    }
    weight BypassHint {
        on:  100;
        off: 0;
    }
    weight InterArrival {
        [0:0]:  100;
        [1:15]: 0;
    }
    range Locality [0 : 5];
}
`)
	if err != nil {
		t.Fatal(err)
	}
	return tmpl
}

func TestModelShape(t *testing.T) {
	u := New()
	if u.Name() != UnitName {
		t.Fatalf("Name = %q", u.Name())
	}
	fam, ok := u.Model().Family(FamilyName)
	if !ok || len(fam) != 16 {
		t.Fatalf("family = %v, %v", fam, ok)
	}
	if len(u.BaseTemplates()) < 5 {
		t.Fatal("base suite too small")
	}
	for _, b := range u.BaseTemplates() {
		if err := b.Validate(); err != nil {
			t.Errorf("base template %q invalid: %v", b.Name, err)
		}
	}
}

func TestSimulateDeterministic(t *testing.T) {
	u := New()
	tmpl := findBase(t, u, "l3_bypass_probe")
	for i := 0; i < 5; i++ {
		g1 := generator.New(tmpl, u.Defaults(), uint64(i))
		g2 := generator.New(tmpl, u.Defaults(), uint64(i))
		if !u.Simulate(g1).Equal(u.Simulate(g2)) {
			t.Fatalf("seed %d: simulation not deterministic", i)
		}
	}
}

func TestFamilyGradientIsMonotone(t *testing.T) {
	u := New()
	for _, tmpl := range []*template.Template{nil, findBase(t, u, "l3_bypass_probe"), optimalTemplate(t)} {
		c := runMany(u, tmpl, 300, 21)
		fam, _ := u.Model().Family(FamilyName)
		for i := 1; i < len(fam); i++ {
			if c.Hits(fam[i]) > c.Hits(fam[i-1]) {
				t.Fatalf("gradient violated at %s", u.Model().Name(fam[i]))
			}
		}
	}
}

func TestDefaultTrafficLeavesDeepLevelsUncovered(t *testing.T) {
	u := New()
	c := runMany(u, nil, 400, 3)
	m := u.Model()
	for _, ev := range []string{"byp_reqs08", "byp_reqs12", "byp_reqs16"} {
		if c.Hits(m.MustLookup(ev)) != 0 {
			t.Errorf("%s hit under default traffic (%d times)", ev, c.Hits(m.MustLookup(ev)))
		}
	}
	if c.HitRate(m.MustLookup("byp_reqs01")) < 0.3 {
		t.Errorf("byp_reqs01 rate %.3f too low under defaults", c.HitRate(m.MustLookup("byp_reqs01")))
	}
	// The cache itself must behave like a cache: hits and misses both occur.
	for _, ev := range []string{"l3_hit_read", "l3_miss_read", "l3_evict_clean", "l3_evict_dirty"} {
		if c.Hits(m.MustLookup(ev)) == 0 {
			t.Errorf("%s never hit; cache model degenerate", ev)
		}
	}
}

func TestBypassProbeBeatsDefault(t *testing.T) {
	u := New()
	def := runMany(u, nil, 300, 4)
	probe := runMany(u, findBase(t, u, "l3_bypass_probe"), 300, 5)
	m := u.Model()
	for _, ev := range []string{"byp_reqs02", "byp_reqs03"} {
		id := m.MustLookup(ev)
		if probe.HitRate(id) <= def.HitRate(id) {
			t.Errorf("%s: probe %.3f <= default %.3f", ev, probe.HitRate(id), def.HitRate(id))
		}
	}
}

func TestOptimalReachesDeepLevels(t *testing.T) {
	u := New()
	c := runMany(u, optimalTemplate(t), 400, 6)
	m := u.Model()
	r10 := c.HitRate(m.MustLookup("byp_reqs10"))
	r16 := c.HitRate(m.MustLookup("byp_reqs16"))
	if r10 < 0.1 {
		t.Errorf("byp_reqs10 rate = %.3f under optimal stimuli, want >= 0.1", r10)
	}
	if r16 > 0.3 {
		t.Errorf("byp_reqs16 rate = %.3f: tail too easy", r16)
	}
	t.Logf("optimal: byp10=%.3f byp13=%.3f byp16=%.4f",
		r10, c.HitRate(m.MustLookup("byp_reqs13")), r16)
}

func TestLocalityControlsMissRate(t *testing.T) {
	u := New()
	mk := func(lo, hi int) *template.Template {
		tmpl := template.New(fmt.Sprintf("loc_%d_%d", lo, hi))
		tmpl.SetParam(&template.RangeParam{Name: "Locality", Lo: lo, Hi: hi})
		return tmpl
	}
	m := u.Model()
	lowLoc := runMany(u, mk(0, 5), 200, 7)
	highLoc := runMany(u, mk(90, 100), 200, 8)
	missLow := lowLoc.HitRate(m.MustLookup("l3_miss_read"))
	hitHigh := highLoc.HitRate(m.MustLookup("l3_hit_read"))
	if missLow < 0.9 {
		t.Errorf("low locality should miss nearly always per sim; miss event rate %.3f", missLow)
	}
	if hitHigh < 0.9 {
		t.Errorf("high locality should hit within most sims; hit event rate %.3f", hitHigh)
	}
}

func TestCalibrationReport(t *testing.T) {
	if testing.Short() {
		t.Skip("calibration report skipped in -short")
	}
	u := New()
	m := u.Model()
	fam, _ := m.Family(FamilyName)
	report := func(name string, tmpl *template.Template, seed uint64) {
		c := runMany(u, tmpl, 500, seed)
		line := name + ":"
		for _, id := range fam {
			line += fmt.Sprintf(" %02d=%.1f%%", id+1, c.HitRate(id)*100)
		}
		t.Log(line)
	}
	report("defaults", nil, 1)
	for i, b := range u.BaseTemplates() {
		report(b.Name, b, uint64(100+i))
	}
	report("hand_optimal", optimalTemplate(t), 999)
}

// TestSimulateGolden locks the unit's simulated statistics bit for bit.
func TestSimulateGolden(t *testing.T) {
	duvtest.SimulateGolden(t, New())
}

// TestSimulateRejectsForeignGenerator: the unit's handles are only valid
// for plans compiled over its own defaults.
func TestSimulateRejectsForeignGenerator(t *testing.T) {
	duvtest.RejectsForeignGenerator(t, New())
}

// TestSimulateMatchesReference: jumping over the wait cycles, the
// completion calendar, the packed tags and the one-draw address pick
// change no vector and no stream position. Beside the skeleton instances
// and their corners, the edge shapes: negative inter-arrival times (no
// wait at all), waits that run past the end of the instance, the
// bypass-heavy template whose completions fall due during waits, and
// edgeShapes.
func TestSimulateMatchesReference(t *testing.T) {
	u := New()
	var extra []*template.Template
	for _, src := range []string{
		`template wait_negative { range InterArrival [-4 : 3]; }`,
		`template wait_long { weight BypassHint { on: 100; } range InterArrival [20 : 3000]; }`,
		`template wait_nop_flush { weight ReqType { read: 40; flush: 30; nop: 30; } weight BypassHint { on: 100; } range InterArrival [0 : 40]; }`,
	} {
		tmpl, err := template.Parse(src)
		if err != nil {
			t.Fatal(err)
		}
		extra = append(extra, tmpl)
	}
	for _, s := range edgeShapes {
		extra = append(extra, s.template())
	}
	extra = append(extra, optimalTemplate(t))
	duvtest.MatchesReference(t, u, u.simulateReference, extra...)
}

// shape is a template over the ReqType mix, the BypassHint mix and the
// [lo:hi] ranges of InterArrival and Locality (lo and hi in either
// order): the space FuzzSimulateMatchesReference searches.
type shape struct {
	name                             string
	read, write, rwitm, flush, nop   uint8
	on, off                          uint8
	waitLo, waitHi, localLo, localHi int16
}

func (s shape) template() *template.Template {
	tmpl := template.New(s.name)
	tmpl.SetParam(&template.WeightParam{Name: "ReqType", Entries: []template.WeightEntry{
		{Value: "read", Weight: int(s.read)},
		{Value: "write", Weight: int(s.write)},
		{Value: "rwitm", Weight: int(s.rwitm)},
		{Value: "flush", Weight: int(s.flush)},
		{Value: "nop", Weight: int(s.nop)},
	}})
	tmpl.SetParam(&template.WeightParam{Name: "BypassHint", Entries: []template.WeightEntry{
		{Value: "on", Weight: int(s.on)},
		{Value: "off", Weight: int(s.off)},
	}})
	for _, p := range []struct {
		name   string
		lo, hi int16
	}{{"InterArrival", s.waitLo, s.waitHi}, {"Locality", s.localLo, s.localHi}} {
		tmpl.SetParam(&template.RangeParam{Name: p.name, Lo: int(min(p.lo, p.hi)), Hi: int(max(p.lo, p.hi))})
	}
	return tmpl
}

// edgeShapes drive the bypass queue, its completion calendar, the packed
// tags and the address pick into their corners.
var edgeShapes = []shape{
	// Requests that finish while the issue step waits out a long gap.
	{name: "due_during_wait", read: 100, on: 100, waitLo: 5, waitHi: 40},
	// Back-to-back bypass-eligible misses: the queue fills and denies.
	{name: "queue_full", read: 80, rwitm: 20, on: 100},
	// Flushes issued while bypass requests are in flight.
	{name: "flush_in_flight", read: 50, flush: 50, on: 100, waitHi: 2},
	// A request each cycle, so some latency ends on the last cycle.
	{name: "due_on_last_cycle", read: 100, on: 100, waitHi: 1, localHi: 5},
	// Every wait outlasts the longest latency: each issue after the first
	// retires the whole calendar at once.
	{name: "retire_all_jump", read: 80, rwitm: 20, on: 100, waitLo: 41, waitHi: 200},
	// Issues 39 and 40 cycles apart (a wait of n cycles puts the next
	// issue n+1 cycles on): a request granted the longest latency is still
	// in flight at the next issue, or has just finished.
	{name: "wait_max_latency", read: 100, on: 100, waitLo: 38, waitHi: 39},
	// Writes fill and dirty every way of every set, and flushes empty
	// full, dirty sets.
	{name: "flush_dirty_full", write: 70, rwitm: 10, flush: 20, on: 50, off: 50},
	// The locality draw always keeps the recent line, and never does.
	{name: "locality_always", read: 50, write: 30, rwitm: 20, on: 100, localLo: 100, localHi: 100},
	{name: "locality_never", read: 50, write: 30, rwitm: 20, on: 100},
	// Writes only, all fresh lines: every set fills and evicts dirty ways.
	{name: "write_storm_full", write: 100, off: 100},
	// Grant decisions only at the rare read miss, a request each cycle:
	// decisions fall tens of cycles apart, and the completions due between
	// two of them are retired together at the later one.
	{name: "decide_between_writes", read: 3, write: 97, on: 100},
	// The hint on 3 % of the time, an issue every 2 to 4 cycles: most
	// gaps between decisions outlast the longest latency.
	{name: "hint_rare", read: 100, on: 3, off: 97, waitLo: 1, waitHi: 3},
}

// FuzzSimulateMatchesReference: over any request mix, hint mix, ranges
// and seed, Simulate gives the reference's vector and leaves the stream
// where the reference does.
func FuzzSimulateMatchesReference(f *testing.F) {
	for i, s := range edgeShapes {
		f.Add(s.read, s.write, s.rwitm, s.flush, s.nop, s.on, s.off, s.waitLo, s.waitHi, s.localLo, s.localHi, uint64(i))
	}
	u := New()
	f.Fuzz(func(t *testing.T, read, write, rwitm, flush, nop, on, off uint8, waitLo, waitHi, localLo, localHi int16, seed uint64) {
		s := shape{"fuzz", read, write, rwitm, flush, nop, on, off, waitLo, waitHi, localLo, localHi}
		plan := generator.Compile(s.template(), u.Defaults())
		if err := plan.Err(); err != nil {
			t.Skip(err)
		}
		duvtest.SameAsReference(t, u, u.simulateReference, plan, seed)
	})
}

// BenchmarkSimulate times one instance at three shapes campaigns run:
// l3_regress_default, the base template the corpus simulates (the hint
// on 10 % of the time); a point of the l3_bypass_probe skeleton with the
// bypass hint always on; and queue_full, the back-to-back read-class
// misses with the hint on that Fig. 4's optimizer drives its templates
// toward.
func BenchmarkSimulate(b *testing.B) {
	u := New()
	skel, err := skeleton.Skeletonize(findBase(b, u, "l3_bypass_probe"), skeleton.Options{})
	if err != nil {
		b.Fatal(err)
	}
	x := skel.RandomWeights(rng.New(1))
	for i, slot := range skel.Slots() {
		if slot.Param == "BypassHint" {
			x[i] = 0
			if slot.Label == "on" {
				x[i] = float64(skel.MaxWeight())
			}
		}
	}
	tmpl, err := skel.Instantiate("l3_bypass_probe_point", x)
	if err != nil {
		b.Fatal(err)
	}
	var queueFull *template.Template
	for _, s := range edgeShapes {
		if s.name == "queue_full" {
			queueFull = s.template()
		}
	}
	duvtest.BenchmarkSimulate(b, u, findBase(b, u, "l3_regress_default"), tmpl, queueFull)
}

// cacheLine is one way of a set in simulateReference.
type cacheLine struct {
	tag   int
	valid bool
	dirty bool
	lru   int // higher = more recently used
}

// simulateReference is the cycle-by-cycle Simulate the model had before
// it jumped over its quiet cycles, kept as the oracle of
// TestSimulateMatchesReference: it steps every cycle and makes every draw.
// It also keeps the per-way cacheLines with their linear tag and LRU
// scans, the list of completion cycles, and the address pick that draws
// in one arm or the other, where Simulate has packed tags, a completion
// calendar and one draw.
func (u *L3Cache) simulateReference(g *generator.Generator) coverage.Vector {
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
	inFlight := 0
	maxInFlight := 0
	waitLeft := 0
	lastSet, lastSetCycle := -1, -1<<30

	for cycle := 0; cycle < simCycles; cycle++ {
		// Retire finished bypass requests.
		n := 0
		for _, c := range completions {
			if c > cycle {
				completions[n] = c
				n++
			} else {
				inFlight--
			}
		}
		completions = completions[:n]

		if waitLeft > 0 {
			waitLeft--
			continue
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
					v.Set(u.evEvict[1])
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
					v.Set(u.evEvict[1])
				} else {
					v.Set(u.evEvict[0])
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
