package iounit

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

// runMany simulates n instances of tmpl (nil = defaults only) and
// returns the aggregate.
func runMany(u *IOUnit, tmpl *template.Template, n int, seed uint64) *coverage.Counts {
	c := coverage.NewCountsFor(u.Model())
	base := rng.New(seed)
	for i := 0; i < n; i++ {
		g := generator.New(tmpl, u.Defaults(), base.SplitIndex(uint64(i)).Uint64())
		c.Add(u.Simulate(g))
	}
	return c
}

func findBase(t testing.TB, u *IOUnit, name string) *template.Template {
	t.Helper()
	for _, b := range u.BaseTemplates() {
		if b.Name == name {
			return b
		}
	}
	t.Fatalf("base template %q not found", name)
	return nil
}

// optimalTemplate is a hand-built near-ideal template: all-CRC traffic,
// maximum bursts, zero gaps. The optimizer should discover something
// like it; the unit tests use it to verify the deep family levels are
// reachable at all.
func optimalTemplate(t testing.TB) *template.Template {
	t.Helper()
	tmpl, err := template.Parse(`
template io_optimal {
    weight Command {
        dma_read:  0;
        dma_write: 0;
        crc:       100;
        interrupt: 0;
        nop:       0;
    }
    weight BurstLen {
        [25:32]: 100;
        [1:24]:  0;
    }
    weight Gap {
        [0:1]:  100;
        [2:31]: 0;
    }
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
	if u.Model().Size() < 30 {
		t.Fatalf("model has only %d events", u.Model().Size())
	}
	fam, ok := u.Model().Family(FamilyName)
	if !ok || len(fam) != 6 {
		t.Fatalf("crc family = %v, %v", fam, ok)
	}
	if len(u.BaseTemplates()) < 5 {
		t.Fatalf("base suite too small: %d", len(u.BaseTemplates()))
	}
	for _, b := range u.BaseTemplates() {
		if err := b.Validate(); err != nil {
			t.Errorf("base template %q invalid: %v", b.Name, err)
		}
	}
}

func TestBaseTemplatesAreClones(t *testing.T) {
	u := New()
	a := u.BaseTemplates()
	a[0].Name = "mutated"
	b := u.BaseTemplates()
	if b[0].Name == "mutated" {
		t.Fatal("BaseTemplates must return independent clones")
	}
}

func TestSimulateDeterministic(t *testing.T) {
	u := New()
	tmpl := findBase(t, u, "io_crc_stress")
	for i := 0; i < 5; i++ {
		g1 := generator.New(tmpl, u.Defaults(), uint64(i))
		g2 := generator.New(tmpl, u.Defaults(), uint64(i))
		if !u.Simulate(g1).Equal(u.Simulate(g2)) {
			t.Fatalf("seed %d: simulation not deterministic", i)
		}
	}
}

func TestFamilyGradientIsMonotone(t *testing.T) {
	// Within any aggregate, deeper occupancy events can never be hit more
	// often than shallower ones (threshold events are nested).
	u := New()
	for _, tmpl := range []*template.Template{nil, findBase(t, u, "io_crc_stress"), optimalTemplate(t)} {
		c := runMany(u, tmpl, 300, 42)
		fam, _ := u.Model().Family(FamilyName)
		for i := 1; i < len(fam); i++ {
			if c.Hits(fam[i]) > c.Hits(fam[i-1]) {
				t.Fatalf("gradient violated at %s: %d > %d",
					u.Model().Name(fam[i]), c.Hits(fam[i]), c.Hits(fam[i-1]))
			}
		}
	}
}

func TestDefaultTrafficLeavesDeepLevelsUncovered(t *testing.T) {
	u := New()
	c := runMany(u, nil, 400, 7)
	m := u.Model()
	if c.Hits(m.MustLookup("crc_064")) != 0 {
		t.Errorf("crc_064 hit %d times under default traffic, want 0", c.Hits(m.MustLookup("crc_064")))
	}
	if c.Hits(m.MustLookup("crc_096")) != 0 {
		t.Errorf("crc_096 hit under default traffic")
	}
	// Shallow misc events must be exercised, or TAC has nothing to mine.
	if c.HitRate(m.MustLookup("io_cmd_crc")) < 0.5 {
		t.Errorf("io_cmd_crc rate = %v, suspiciously low", c.HitRate(m.MustLookup("io_cmd_crc")))
	}
}

func TestCRCStressBeatsDefaultOnFamily(t *testing.T) {
	u := New()
	def := runMany(u, nil, 400, 11)
	stress := runMany(u, findBase(t, u, "io_crc_stress"), 400, 12)
	m := u.Model()
	for _, ev := range []string{"crc_008", "crc_016"} {
		id := m.MustLookup(ev)
		if stress.HitRate(id) <= def.HitRate(id) {
			t.Errorf("%s: stress rate %.3f <= default rate %.3f",
				ev, stress.HitRate(id), def.HitRate(id))
		}
	}
}

func TestOptimalTemplateReachesDeepLevels(t *testing.T) {
	u := New()
	c := runMany(u, optimalTemplate(t), 400, 13)
	m := u.Model()
	r64 := c.HitRate(m.MustLookup("crc_064"))
	r96 := c.HitRate(m.MustLookup("crc_096"))
	if r64 < 0.05 {
		t.Errorf("crc_064 rate = %.3f under optimal stimuli, want >= 0.05", r64)
	}
	if r96 == 0 {
		t.Logf("crc_096 not reached in 400 sims (rate target ~5%%); acceptable but tight")
	}
	if r96 > 0.5 {
		t.Errorf("crc_096 rate = %.3f: deep level too easy, pushback miscalibrated", r96)
	}
	t.Logf("optimal rates: crc_032=%.3f crc_064=%.3f crc_096=%.3f",
		c.HitRate(m.MustLookup("crc_032")), r64, r96)
}

// TestCalibrationReport prints the family rates for every base template
// plus the hand-optimal template; run with -v to inspect calibration.
func TestCalibrationReport(t *testing.T) {
	if testing.Short() {
		t.Skip("calibration report skipped in -short")
	}
	u := New()
	m := u.Model()
	fam, _ := m.Family(FamilyName)
	report := func(name string, tmpl *template.Template, n int, seed uint64) {
		c := runMany(u, tmpl, n, seed)
		line := name + ":"
		for _, id := range fam {
			line += " " + m.Name(id) + "=" + formatRate(c.HitRate(id))
		}
		t.Log(line)
	}
	report("defaults", nil, 500, 1)
	for i, b := range u.BaseTemplates() {
		report(b.Name, b, 500, uint64(100+i))
	}
	report("hand_optimal", optimalTemplate(t), 500, 999)
}

func formatRate(r float64) string {
	switch {
	case r == 0:
		return "0"
	case r < 0.001:
		return "<0.1%"
	default:
		return fmt.Sprintf("%.1f%%", r*100)
	}
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

// TestSimulateMatchesReference: running the busy cycles in stretches and
// jumping over the quiet ones changes no vector and no stream position.
// Beside the skeleton instances and their corners, the edge shapes: a
// CRC burst of zero (nothing to push, nothing to count down), the
// negative gaps, payloads and bursts a template's range may produce,
// which stall the engine for the rest of the instance, and edgeShapes.
func TestSimulateMatchesReference(t *testing.T) {
	u := New()
	var extra []*template.Template
	for _, src := range []string{
		`template crc_zero_burst { weight Command { crc: 80; nop: 20; } range BurstLen [0 : 3]; range Gap [0 : 2]; }`,
		`template gap_negative { weight Command { crc: 50; dma_read: 50; } range Gap [-3 : 3]; }`,
		`template payload_negative { range PayloadSize [-200 : 10]; range Gap [0 : 3]; }`,
		`template burst_negative { weight Command { crc: 60; interrupt: 20; nop: 20; } range BurstLen [-2 : 12]; }`,
		`template gap_huge { weight Command { crc: 50; nop: 50; } range Gap [0 : 5000]; }`,
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

// shape is a template over the Command mix and the [lo:hi] ranges of
// BurstLen, Gap and PayloadSize (lo and hi in either order): the
// space FuzzSimulateMatchesReference searches.
type shape struct {
	name                                         string
	read, write, crc, irq, nop                   uint8
	burstLo, burstHi, gapLo, gapHi, payLo, payHi int16
}

func (s shape) template() *template.Template {
	tmpl := template.New(s.name)
	tmpl.SetParam(&template.WeightParam{Name: "Command", Entries: []template.WeightEntry{
		{Value: "dma_read", Weight: int(s.read)},
		{Value: "dma_write", Weight: int(s.write)},
		{Value: "crc", Weight: int(s.crc)},
		{Value: "interrupt", Weight: int(s.irq)},
		{Value: "nop", Weight: int(s.nop)},
	}})
	for _, p := range []struct {
		name   string
		lo, hi int16
	}{{"BurstLen", s.burstLo, s.burstHi}, {"Gap", s.gapLo, s.gapHi}, {"PayloadSize", s.payLo, s.payHi}} {
		tmpl.SetParam(&template.RangeParam{Name: p.name, Lo: int(min(p.lo, p.hi)), Hi: int(max(p.lo, p.hi))})
	}
	return tmpl
}

// edgeShapes drive the push and drain stretches into their corners.
var edgeShapes = []shape{
	// A burst longer than the instance: the push stretch ends on the last cycle.
	{name: "burst_past_end", crc: 100, burstLo: 1500, burstHi: 3000, payLo: 1, payHi: 64},
	// Short bursts, long gaps: the FIFO empties partway through a drain stretch.
	{name: "drain_empties_mid_stretch", crc: 60, nop: 40, burstLo: 1, burstHi: 6, gapLo: 8, gapHi: 40, payLo: 1, payHi: 64},
	// One- and two-entry bursts, short gaps: the FIFO empties on a
	// stretch's last cycle, and on the instance's.
	{name: "drain_empties_last_cycle", crc: 90, nop: 10, burstLo: 1, burstHi: 2, gapHi: 3, payLo: 1, payHi: 64},
	// Occupancy below scrubSize when a scrub fires.
	{name: "scrub_below_size", crc: 100, burstLo: 1, burstHi: 4, gapHi: 6, payLo: 1, payHi: 64},
	// An interrupt issued right after a burst flushes the filled FIFO.
	{name: "irq_after_burst", crc: 50, irq: 50, burstLo: 10, burstHi: 20, payLo: 1, payHi: 64},
	// Back-to-back CRC commands with no gap between them.
	{name: "back2back_zero_gap", crc: 100, burstLo: 1, burstHi: 8, payLo: 1, payHi: 64},
	// Bursts long enough to hold occupancy at fifoCap, with drops.
	{name: "fifo_full_drops", crc: 100, burstLo: 400, burstHi: 1200, payLo: 1, payHi: 64},
}

// FuzzSimulateMatchesReference: over any Command mix, ranges and seed,
// Simulate gives the reference's vector and leaves the stream where the
// reference does.
func FuzzSimulateMatchesReference(f *testing.F) {
	for i, s := range edgeShapes {
		f.Add(s.read, s.write, s.crc, s.irq, s.nop, s.burstLo, s.burstHi, s.gapLo, s.gapHi, s.payLo, s.payHi, uint64(i))
	}
	u := New()
	f.Fuzz(func(t *testing.T, read, write, crc, irq, nop uint8, burstLo, burstHi, gapLo, gapHi, payLo, payHi int16, seed uint64) {
		s := shape{"fuzz", read, write, crc, irq, nop, burstLo, burstHi, gapLo, gapHi, payLo, payHi}
		plan := generator.Compile(s.template(), u.Defaults())
		if err := plan.Err(); err != nil {
			t.Skip(err)
		}
		duvtest.SameAsReference(t, u, u.simulateReference, plan, seed)
	})
}

// BenchmarkSimulate times one instance at the shapes campaigns run: the
// optimal template, which pushes nearly every cycle, and a point of the
// io_crc_stress skeleton.
func BenchmarkSimulate(b *testing.B) {
	u := New()
	skel, err := skeleton.Skeletonize(findBase(b, u, "io_crc_stress"), skeleton.Options{})
	if err != nil {
		b.Fatal(err)
	}
	stress, err := skel.Instantiate("io_crc_stress_point", skel.RandomWeights(rng.New(1)))
	if err != nil {
		b.Fatal(err)
	}
	for _, tmpl := range []*template.Template{optimalTemplate(b), stress} {
		plan := generator.Compile(tmpl, u.Defaults())
		b.Run(tmpl.Name, func(b *testing.B) {
			g := generator.NewFromPlan(plan, 0)
			for i := 0; i < b.N; i++ {
				g.Reset(uint64(i))
				u.Simulate(g)
			}
		})
	}
}

// simulateReference is the cycle-by-cycle Simulate the model had before
// it jumped over its quiet cycles, kept as the oracle of
// TestSimulateMatchesReference: it steps every cycle and makes every draw.
func (u *IOUnit) simulateReference(g *generator.Generator) coverage.Vector {
	u.bind.Check(g)
	v := coverage.NewVectorFor(u.model)
	r := g.RNG()
	command, channel := g.Choice(u.hCommand), g.Choice(u.hChannel)
	burstLen, payloadSize, gaps := g.Ranges(u.hBurstLen), g.Ranges(u.hPayloadSize), g.Ranges(u.hGap)

	occ := 0      // CRC FIFO occupancy
	maxOcc := 0   // high-water mark
	pushLeft := 0 // CRC entries still to push for the current burst
	busyLeft := 0 // cycles the current non-CRC command still occupies
	gapLeft := 0  // idle cycles before the next command
	lastWasCRC := false
	idleRun := 0 // consecutive cycles at zero occupancy
	wasNonEmpty := false

	for cycle := 0; cycle < simCycles; cycle++ {
		// Start a new command when the engine is free.
		if pushLeft == 0 && busyLeft == 0 && gapLeft == 0 {
			cmd := command.Code(r)
			v.Set(u.cmdSeen[cmd])
			ch := channel.Code(r)
			v.Set(u.chUsed[ch])

			switch cmd {
			case u.cmdCRC:
				burst := burstLen.Pick(r).Int(r)
				pushLeft = burst
				switch {
				case burst <= 4:
					v.Set(u.burstIDs[0])
				case burst <= 8:
					v.Set(u.burstIDs[1])
				case burst <= 16:
					v.Set(u.burstIDs[2])
				default:
					v.Set(u.burstIDs[3])
				}
				if lastWasCRC {
					v.Set(u.evBack2Back)
				}
				lastWasCRC = true
			case u.cmdRead, u.cmdWrite:
				payload := payloadSize.Pick(r).Int(r)
				if payload <= 16 {
					v.Set(u.evPayloadSmall)
				}
				if payload >= 49 {
					v.Set(u.evPayloadLarge)
				}
				busyLeft = 2 + payload/32
				v.Set(u.dmaByCh[cmd][ch])
				lastWasCRC = false
			case u.cmdIRQ:
				if occ > 8 {
					v.Set(u.evIRQDuringFill)
				}
				occ = 0 // interrupt handler flushes the CRC FIFO
				busyLeft = 4
				lastWasCRC = false
			default: // nop
				busyLeft = 1
				lastWasCRC = false
			}

			gap := gaps.Pick(r).Int(r)
			gapLeft = gap
			if gap == 0 {
				v.Set(u.evGapZero)
			}
			if gap > 24 {
				v.Set(u.evGapLong)
			}
		}

		// Advance the engine by one cycle.
		switch {
		case pushLeft > 0:
			// CRC burst in flight: push entries, with hardware pushback.
			rate := 2
			if occ >= throttleAt {
				rate = 1
			}
			for i := 0; i < rate && pushLeft > 0; i++ {
				pushLeft--
				if occ >= dropAt && r.Below(dropBelow) {
					continue // entry dropped by backpressure
				}
				if occ < fifoCap {
					occ++
				} else {
					v.Set(u.evFifoFull)
				}
			}
		case busyLeft > 0:
			busyLeft--
		case gapLeft > 0:
			gapLeft--
		}

		// Background drain and scrub.
		if occ > 0 && r.Below(drainBelow) {
			occ--
		}
		if r.Below(scrubBelow) && occ > 0 {
			v.Set(u.evScrubSeen)
			occ -= scrubSize
			if occ < 0 {
				occ = 0
			}
		}

		if occ > maxOcc {
			maxOcc = occ
		}
		if occ == 0 {
			if wasNonEmpty {
				idleRun++
				if idleRun >= 64 {
					v.Set(u.evDrainIdle)
				}
			}
		} else {
			wasNonEmpty = true
			idleRun = 0
		}
	}

	for i, th := range crcThresholds {
		if maxOcc >= th {
			v.Set(u.crcIDs[i])
		}
	}
	return v
}
