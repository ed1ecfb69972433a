package ifu

import (
	"fmt"
	"testing"

	"repro/internal/coverage"
	"repro/internal/duv/duvtest"
	"repro/internal/generator"
	"repro/internal/rng"
	"repro/internal/template"
)

func runMany(u *IFU, tmpl *template.Template, n int, seed uint64) *coverage.Counts {
	c := coverage.NewCountsFor(u.Model())
	base := rng.New(seed)
	for i := 0; i < n; i++ {
		g := generator.New(tmpl, u.Defaults(), base.SplitIndex(uint64(i)).Uint64())
		c.Add(u.Simulate(g))
	}
	return c
}

// optimalTemplate pushes the queue deep on all threads and sectors:
// balanced threads, full address range, heavy dispatch stalls, no
// redirects.
func optimalTemplate(t *testing.T) *template.Template {
	t.Helper()
	tmpl, err := template.Parse(`
template ifu_optimal {
    weight ThreadSel {
        t0: 25;
        t1: 25;
        t2: 25;
        t3: 25;
    }
    range FetchAddr [0 : 65535];
    weight BranchMix {
        seq: 50;
        br:  50;
    }
    range DispatchStall [4 : 6];
    range RedirectRate [0 : 2];
}
`)
	if err != nil {
		t.Fatal(err)
	}
	return tmpl
}

func crossStatusCounts(u *IFU, c *coverage.Counts) map[coverage.Status]int {
	ids := make([]int, 0, u.Cross().Size())
	for _, name := range u.Cross().EventNames() {
		ids = append(ids, u.Model().MustLookup(name))
	}
	return c.StatusCounts(ids)
}

func TestModelShape(t *testing.T) {
	u := New()
	if u.Cross().Size() != 256 {
		t.Fatalf("cross size = %d, want 256", u.Cross().Size())
	}
	if u.Model().Size() != 259 {
		t.Fatalf("model size = %d, want 259", u.Model().Size())
	}
	cp, ok := u.Model().Cross(CrossName)
	if !ok || cp != u.Cross() {
		t.Fatal("cross not registered on the model")
	}
	for _, b := range u.BaseTemplates() {
		if err := b.Validate(); err != nil {
			t.Errorf("base template %q invalid: %v", b.Name, err)
		}
	}
}

func TestSimulateDeterministic(t *testing.T) {
	u := New()
	for i := 0; i < 5; i++ {
		g1 := generator.New(nil, u.Defaults(), uint64(i))
		g2 := generator.New(nil, u.Defaults(), uint64(i))
		if !u.Simulate(g1).Equal(u.Simulate(g2)) {
			t.Fatalf("seed %d: not deterministic", i)
		}
	}
}

func TestEntry7Unhittable(t *testing.T) {
	u := New()
	c := runMany(u, optimalTemplate(t), 500, 9)
	m := u.Model()
	for _, name := range u.Cross().EventNames() {
		coords, err := u.Cross().Coords(name)
		if err != nil {
			t.Fatal(err)
		}
		if coords[0] == 7 && c.Hits(m.MustLookup(name)) != 0 {
			t.Fatalf("entry7 event %s was hit; flow control broken", name)
		}
	}
}

func TestDeepEntriesReachableUnderPressure(t *testing.T) {
	u := New()
	c := runMany(u, optimalTemplate(t), 300, 10)
	m := u.Model()
	hit6 := 0
	for th := 0; th < 4; th++ {
		for s := 0; s < 4; s++ {
			for _, b := range []string{"seq", "br"} {
				name := fmt.Sprintf("ifu_e6_t%d_s%d_%s", th, s, b)
				if c.Hits(m.MustLookup(name)) > 0 {
					hit6++
				}
			}
		}
	}
	if hit6 < 16 {
		t.Errorf("only %d of 32 entry6 events hit under pressure stimuli", hit6)
	}
}

func TestDefaultTrafficLeavesCrossMostlyDark(t *testing.T) {
	u := New()
	c := runMany(u, nil, 400, 11)
	sc := crossStatusCounts(u, c)
	if sc[coverage.StatusNever] < 64 {
		t.Errorf("default traffic covers too much: status counts %v", sc)
	}
	if sc[coverage.StatusWell]+sc[coverage.StatusLightly] < 16 {
		t.Errorf("default traffic covers too little: %v", sc)
	}
}

func TestThreadBiasShowsInCoverage(t *testing.T) {
	u := New()
	c := runMany(u, nil, 300, 12)
	m := u.Model()
	// Default thread mix is 70% t0: deep entries on t3 should be darker
	// than on t0.
	t0 := c.Hits(m.MustLookup("ifu_e4_t0_s0_seq"))
	t3 := c.Hits(m.MustLookup("ifu_e4_t3_s0_seq"))
	if t3 > t0 {
		t.Errorf("thread bias not visible: e4_t0=%d e4_t3=%d", t0, t3)
	}
}

func TestSectorsNeedWideAddressRange(t *testing.T) {
	u := New()
	c := runMany(u, nil, 300, 13)
	m := u.Model()
	// Default FetchAddr covers only sector 0 (addr < 16384).
	for s := 1; s < 4; s++ {
		name := fmt.Sprintf("ifu_e0_t0_s%d_seq", s)
		if c.Hits(m.MustLookup(name)) != 0 {
			t.Errorf("%s hit despite narrow default fetch window", name)
		}
	}
	if c.Hits(m.MustLookup("ifu_e0_t0_s0_seq")) == 0 {
		t.Error("sector 0 not covered at all")
	}
}

func TestCalibrationReport(t *testing.T) {
	if testing.Short() {
		t.Skip("calibration report skipped in -short")
	}
	u := New()
	report := func(name string, tmpl *template.Template, seed uint64) {
		c := runMany(u, tmpl, 400, seed)
		sc := crossStatusCounts(u, c)
		t.Logf("%s: never=%d lightly=%d well=%d",
			name, sc[coverage.StatusNever], sc[coverage.StatusLightly], sc[coverage.StatusWell])
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

// BenchmarkSimulate times one instance at shapes campaigns run: a point
// of the ifu_smt_balance skeleton and one of ifu_backpressure.
func BenchmarkSimulate(b *testing.B) {
	u := New()
	duvtest.BenchmarkSimulate(b, u, duvtest.SkeletonPoint(b, u, "ifu_smt_balance"), duvtest.SkeletonPoint(b, u, "ifu_backpressure"))
}
