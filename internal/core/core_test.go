package core

import (
	"context"
	"reflect"
	"strings"
	"testing"

	"repro/internal/duv"
	"repro/internal/duv/iounit"
	"repro/internal/duv/l3cache"
	"repro/internal/neighbors"
	"repro/internal/obs"
	"repro/internal/sim"
	"repro/internal/template"
)

func mustParse(t *testing.T, src string) *template.Template {
	t.Helper()
	tmpl, err := template.Parse(src)
	if err != nil {
		t.Fatal(err)
	}
	return tmpl
}

func TestMergeTemplatesWeights(t *testing.T) {
	a := mustParse(t, `
template a {
    weight W { x: 10; y: 50; }
    range R [0 : 10];
}
`)
	b := mustParse(t, `
template b {
    weight W { y: 80; z: 5; }
    range R [5 : 30];
    range Extra [1 : 2];
}
`)
	m := MergeTemplates("merged", []*template.Template{a, b})
	if m.Name != "merged" {
		t.Fatalf("name = %q", m.Name)
	}
	w := m.Weight("W")
	if w == nil || len(w.Entries) != 3 {
		t.Fatalf("W = %+v", w)
	}
	if e, _ := w.Entry("y"); e.Weight != 80 {
		t.Fatalf("y = %d, want max(50,80)", e.Weight)
	}
	if e, _ := w.Entry("x"); e.Weight != 10 {
		t.Fatalf("x = %d", e.Weight)
	}
	r := m.Range("R")
	if r == nil || r.Lo != 0 || r.Hi != 30 {
		t.Fatalf("R = %+v, want widest span", r)
	}
	if m.Range("Extra") == nil {
		t.Fatal("Extra missing")
	}
	if err := m.Validate(); err != nil {
		t.Fatal(err)
	}
}

func TestMergeTemplatesKindConflict(t *testing.T) {
	a := mustParse(t, "template a { weight P { x: 1; } }")
	b := mustParse(t, "template b { range P [0 : 9]; }")
	m := MergeTemplates("m", []*template.Template{a, b})
	if m.Weight("P") == nil {
		t.Fatal("higher-ranked kind should win")
	}
	m2 := MergeTemplates("m2", []*template.Template{b, a})
	if m2.Range("P") == nil {
		t.Fatal("higher-ranked kind should win (range first)")
	}
}

func TestMergeTemplatesDoesNotAliasInputs(t *testing.T) {
	a := mustParse(t, "template a { weight W { x: 10; } }")
	m := MergeTemplates("m", []*template.Template{a})
	m.Weight("W").Entries[0].Weight = 99
	if e, _ := a.Weight("W").Entry("x"); e.Weight != 10 {
		t.Fatal("merge aliased the input template")
	}
}

// newFlow is New for a test's config, failing the test where New fails.
func newFlow(t testing.TB, unit duv.DUV, cfg Config) *Flow {
	t.Helper()
	flow, err := New(unit, cfg)
	if err != nil {
		t.Fatal(err)
	}
	return flow
}

// smallConfig keeps end-to-end flow tests fast.
func smallConfig(seed uint64) Config {
	return Config{
		Seed:                  seed,
		CorpusSimsPerTemplate: 150,
		TopTemplates:          2,
		Subranges:             3,
		SampleTemplates:       20,
		SampleSims:            25,
		OptIterations:         8,
		OptDirections:         6,
		OptSims:               30,
		BestSims:              400,
	}
}

func TestFlowEndToEndIOUnit(t *testing.T) {
	flow := newFlow(t, iounit.New(), smallConfig(1))
	report, err := runOne(flow, Target{Family: iounit.FamilyName})
	if err != nil {
		t.Fatal(err)
	}
	if len(report.Phases) != 4 {
		t.Fatalf("phases = %d", len(report.Phases))
	}
	for i, name := range []string{"before", "sampling", "optimization", "best"} {
		if report.Phases[i].Name != name {
			t.Fatalf("phase %d = %q, want %q", i, report.Phases[i].Name, name)
		}
		if report.Phases[i].Counts.Sims() == 0 {
			t.Fatalf("phase %q has no simulations", name)
		}
	}
	if report.BestTemplate == nil {
		t.Fatal("no best template harvested")
	}
	if err := report.BestTemplate.Validate(); err != nil {
		t.Fatalf("best template invalid: %v", err)
	}
	if len(report.Progress) == 0 {
		t.Fatal("no optimization history")
	}
	if report.TotalSims == 0 {
		t.Fatal("no simulation accounting")
	}
	// The harvested template must be recorded in the repository.
	if _, ok := flow.Repository().Template(report.BestTemplate.Name); !ok {
		t.Fatal("best template not recorded in repository")
	}
	// The real targets were uncovered before the run by construction.
	before := report.Phase("before").Counts
	for _, id := range report.TargetEvents {
		if before.Hits(id) != 0 {
			t.Fatalf("target %d was already covered before CDG", id)
		}
	}
}

func TestFlowImprovesFamilyFrontier(t *testing.T) {
	// At unit-test budgets the deepest I/O family members stay out of
	// reach (they need the paper-scale budgets of cmd/repro), but the
	// frontier must advance: the deepest covered event is hit far more
	// often by the harvested template than by the regression mix.
	flow := newFlow(t, iounit.New(), smallConfig(2))
	report, err := runOne(flow, Target{Family: iounit.FamilyName})
	if err != nil {
		t.Fatal(err)
	}
	m := flow.Env().Unit().Model()
	before := report.Phase("before").Counts
	best := report.Phase("best").Counts
	id := m.MustLookup("crc_032")
	if best.HitRate(id) < 4*before.HitRate(id) {
		t.Errorf("crc_032: best %.4f not well above before %.4f", best.HitRate(id), before.HitRate(id))
	}
}

func TestFlowHitsUncoveredTargetsL3(t *testing.T) {
	// The L3 bypass ladder is gentle enough that even small budgets must
	// newly cover some previously-uncovered family events — the paper's
	// headline claim.
	flow := newFlow(t, l3cache.New(), smallConfig(2))
	report, err := runOne(flow, Target{Family: l3cache.FamilyName})
	if err != nil {
		t.Fatal(err)
	}
	before := report.Phase("before").Counts
	best := report.Phase("best").Counts
	newlyHit := 0
	for _, ev := range report.TargetEvents {
		if before.Hits(ev) != 0 {
			t.Fatalf("target %d was covered before CDG", ev)
		}
		if best.Hits(ev) > 0 {
			newlyHit++
		}
	}
	if newlyHit == 0 {
		t.Error("no previously-uncovered L3 target was hit by the best template")
	}
}

func TestRunFamilyRefinedProgresses(t *testing.T) {
	flow := newFlow(t, l3cache.New(), smallConfig(9))
	reports, err := flow.Run(context.Background(), Target{Family: l3cache.FamilyName, Rounds: 2})
	if err != nil {
		t.Fatal(err)
	}
	if len(reports) == 0 {
		t.Fatal("no reports")
	}
	if len(reports) == 2 {
		// Round 2 must start from strictly more evidence.
		a := reports[0].Phase("before").Counts.Sims()
		b := reports[1].Phase("before").Counts.Sims()
		if b <= a {
			t.Fatalf("round 2 corpus (%d sims) not larger than round 1 (%d)", b, a)
		}
	}
	// Harvested templates get distinct names per round.
	if len(reports) == 2 && reports[0].BestTemplate.Name == reports[1].BestTemplate.Name {
		t.Fatal("refinement rounds reused the harvested template name")
	}
}

// TestFlowSharedRepository: two flows on one CorpusCache share the
// corpus. The second takes the first's build from the cache instead of
// simulating the base suite, and its repository and accounting come out
// as a built corpus's would.
func TestFlowSharedRepository(t *testing.T) {
	unit := iounit.New()
	cache := sim.NewCorpusCache()
	cfgA := smallConfig(3)
	cfgA.CorpusCache = cache
	flowA := newFlow(t, unit, cfgA)
	reportA, err := runOne(flowA, Target{Family: iounit.FamilyName})
	if err != nil {
		t.Fatal(err)
	}

	rec := obs.NewRecorder()
	cfgB := smallConfig(3)
	cfgB.CorpusCache, cfgB.Obs = cache, rec
	flowB := newFlow(t, unit, cfgB)
	report, err := runOne(flowB, Target{Family: iounit.FamilyName, Decay: 0.5})
	if err != nil {
		t.Fatal(err)
	}
	if hits := rec.Counter("sim.corpus_cache.hits").Value(); hits != 1 {
		t.Fatalf("sim.corpus_cache.hits = %d, want the one corpus taken from the cache", hits)
	}
	if !reflect.DeepEqual(report.Phase("before").Counts, reportA.Phase("before").Counts) {
		t.Fatal("the cached corpus differs from the built one")
	}
	corpus := uint64(cfgB.CorpusSimsPerTemplate * len(unit.BaseTemplates()))
	if flowB.Env().Simulations() != corpus+report.TotalSims {
		t.Fatalf("env counted %d sims, want the corpus's %d plus the campaign's %d",
			flowB.Env().Simulations(), corpus, report.TotalSims)
	}
}

// runOne runs a one-round target on flow and returns its report.
func runOne(flow *Flow, target Target) (*Report, error) {
	reports, err := flow.Run(context.Background(), target)
	if err != nil {
		return nil, err
	}
	return reports[0], nil
}

func TestFlowRunErrors(t *testing.T) {
	flow := newFlow(t, iounit.New(), smallConfig(5))
	if _, err := flow.pipeline(nil, nil, nil); err == nil {
		t.Error("nil target should fail")
	}
	if _, err := flow.pipeline(neighbors.Uniform(nil), nil, nil); err == nil {
		t.Error("empty target should fail")
	}
	if _, err := runOne(flow, Target{Family: "no_such_family"}); err == nil {
		t.Error("unknown family should fail")
	}
	if _, err := runOne(flow, Target{Cross: "no_such_cross"}); err == nil {
		t.Error("unknown cross should fail")
	}
	if _, err := runOne(flow, Target{Family: iounit.FamilyName, Decay: 1.5}); err == nil {
		t.Error("decay outside (0, 1] should fail")
	}
	if n := flow.Env().Simulations(); n != 0 {
		t.Errorf("rejected runs simulated %d instances, want none", n)
	}
}

// TestFlowRunsOneCampaign: a flow runs one campaign. A second Run on
// a flow whose campaign finished is an error, not a campaign that finds
// its rounds used up and returns no report, or numbers its harvests
// after the first campaign's. A refused target does not use the flow.
func TestFlowRunsOneCampaign(t *testing.T) {
	flow := newFlow(t, iounit.New(), smallConfig(13))
	defer flow.Close()
	target := Target{Family: iounit.FamilyName, Decay: 0.4, Rounds: 2}
	if _, err := flow.Run(context.Background(), Target{Family: "no_such_family"}); err == nil {
		t.Fatal("unknown family should fail")
	}
	reports, err := flow.Run(context.Background(), target)
	if err != nil {
		t.Fatal(err)
	}
	if !strings.HasSuffix(reports[0].BestTemplate.Name, "_cdg_best_1") {
		t.Fatalf("first harvest %q, want the round-1 name", reports[0].BestTemplate.Name)
	}
	sims := flow.Env().Simulations()
	again, err := flow.Run(context.Background(), target)
	if err == nil || !strings.Contains(err.Error(), "already ran a campaign") {
		t.Fatalf("second campaign on one flow: %d reports, err %v; want the one-run error", len(again), err)
	}
	if n := flow.Env().Simulations(); n != sims {
		t.Fatalf("the refused campaign simulated %d instances", n-sims)
	}
}

func TestFlowNoEvidenceFails(t *testing.T) {
	// A target consisting solely of uncovered events with no covered
	// neighbors must fail with guidance rather than optimize noise.
	unit := iounit.New()
	flow := newFlow(t, unit, smallConfig(6))
	m := unit.Model()
	dark := neighbors.Uniform([]int{m.MustLookup("crc_096")})
	if err := flow.buildCorpus(); err != nil {
		t.Fatal(err)
	}
	if _, err := flow.pipeline(dark, dark.Events(), nil); err == nil {
		t.Fatal("expected failure for evidence-free target")
	} else if !strings.Contains(err.Error(), "no existing template") {
		t.Fatalf("unexpected error: %v", err)
	}
}

func TestReportFormatters(t *testing.T) {
	unit := l3cache.New()
	flow := newFlow(t, unit, smallConfig(7))
	report, err := runOne(flow, Target{Family: l3cache.FamilyName})
	if err != nil {
		t.Fatal(err)
	}
	m := unit.Model()

	table, err := report.FormatFamilyTable(m, l3cache.FamilyName)
	if err != nil {
		t.Fatal(err)
	}
	for _, want := range []string{"byp_reqs01", "byp_reqs16", "before", "best", "hit rate"} {
		if !strings.Contains(table, want) {
			t.Errorf("family table missing %q:\n%s", want, table)
		}
	}
	if _, err := report.FormatFamilyTable(m, "nope"); err == nil {
		t.Error("unknown family should fail")
	}

	fam, _ := m.Family(l3cache.FamilyName)
	status := report.FormatStatusTable(m, fam)
	for _, want := range []string{"never", "lightly", "well", "optimization"} {
		if !strings.Contains(status, want) {
			t.Errorf("status table missing %q:\n%s", want, status)
		}
	}

	progress := report.FormatProgress()
	if !strings.Contains(progress, "iter") {
		t.Errorf("progress missing iterations:\n%s", progress)
	}

	summary := report.Summary(m)
	for _, want := range []string{"AS-CDG run", "coarse search pick", "simulations spent"} {
		if !strings.Contains(summary, want) {
			t.Errorf("summary missing %q:\n%s", want, summary)
		}
	}
}

func TestFormatProgressEmpty(t *testing.T) {
	r := &Report{Unit: "x"}
	if !strings.Contains(r.FormatProgress(), "no iterations") {
		t.Fatal("empty progress should say so")
	}
}

func TestPhaseLookup(t *testing.T) {
	r := &Report{Phases: []PhaseStats{{Name: "before"}, {Name: "best"}}}
	if r.Phase("best") == nil || r.Phase("nope") != nil {
		t.Fatal("Phase lookup broken")
	}
}

func TestConfigDefaults(t *testing.T) {
	c := Config{}.withDefaults()
	if c.CorpusSimsPerTemplate != 1000 || c.TopTemplates != 2 || c.SampleTemplates != 50 ||
		c.OptIterations != 10 || c.BestSims != 2000 {
		t.Fatalf("defaults = %+v", c)
	}
}

func TestBatchObjectiveAccountsEverySimulation(t *testing.T) {
	// Every probe the batch objective runs must land in both the
	// optimization phase aggregate and the flow's total accounting.
	flow := newFlow(t, iounit.New(), smallConfig(33))
	defer flow.Close()
	report, err := runOne(flow, Target{Family: iounit.FamilyName})
	if err != nil {
		t.Fatal(err)
	}
	opt := report.Phase("optimization")
	if opt == nil || opt.Counts.Sims() == 0 {
		t.Fatal("optimization phase has no merged counts")
	}
	// TotalSims covers sampling + optimization + best; the "before"
	// corpus is accounted separately (it may be shared across runs).
	var total uint64
	for _, p := range report.Phases {
		if p.Name != "before" {
			total += p.Counts.Sims()
		}
	}
	if report.TotalSims != total {
		t.Fatalf("TotalSims %d != sampling+optimization+best %d", report.TotalSims, total)
	}
}

func TestRunCrossOnFamilyUnitFails(t *testing.T) {
	flow := newFlow(t, iounit.New(), smallConfig(12))
	if _, err := runOne(flow, Target{Cross: "anything"}); err == nil {
		t.Fatal("iounit has no cross products; a cross target must fail")
	}
}
