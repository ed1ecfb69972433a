package core

import (
	"context"
	"errors"
	"math"
	"path/filepath"
	"reflect"
	"strings"
	"testing"

	"repro/internal/duv/l3cache"
	"repro/internal/journal"
	"repro/internal/obs"
	"repro/internal/sim"
)

func TestRunPerEventSharedBasics(t *testing.T) {
	flow := NewFlow(l3cache.New(), smallConfig(21))
	reports, err := flow.RunPerEventShared(context.Background(), l3cache.FamilyName, 0.4)
	if err != nil {
		t.Fatal(err)
	}
	if len(reports) < 2 {
		t.Fatalf("expected several per-event reports, got %d", len(reports))
	}
	names := map[string]bool{}
	for _, r := range reports {
		if len(r.TargetEvents) != 1 {
			t.Fatalf("per-event report has %d targets", len(r.TargetEvents))
		}
		if r.BestTemplate == nil {
			t.Fatal("missing best template")
		}
		if names[r.BestTemplate.Name] {
			t.Fatalf("duplicate harvested name %q", r.BestTemplate.Name)
		}
		names[r.BestTemplate.Name] = true
		if len(r.Phases) != 4 {
			t.Fatalf("phases = %d", len(r.Phases))
		}
		if err := r.BestTemplate.Validate(); err != nil {
			t.Fatal(err)
		}
	}
	// The shared sampling aggregate must literally be shared.
	if reports[0].Phase("sampling").Counts != reports[1].Phase("sampling").Counts {
		t.Fatal("sampling phase not shared")
	}
}

func TestRunPerEventSharedSavesSimulations(t *testing.T) {
	cfg := smallConfig(22)
	cfg.CorpusCache = sim.NewCorpusCache()

	shared := NewFlow(l3cache.New(), cfg)
	sharedReports, err := shared.RunPerEventShared(context.Background(), l3cache.FamilyName, 0.4)
	if err != nil {
		t.Fatal(err)
	}
	sharedTotal := shared.Env().Simulations()

	// Independent runs: one full round per target, each rebuilding
	// sampling (the corpus comes from the shared flow's cache entry, to
	// isolate the sampling saving). The rounds run step 1 and the
	// pipeline directly, since a family campaign stops once the family
	// is covered.
	indep := NewFlow(l3cache.New(), cfg)
	if err := indep.buildCorpus(); err != nil {
		t.Fatal(err)
	}
	base := indep.Env().Simulations()
	k := len(sharedReports)
	var prior []*Report
	for i := 0; i < k; i++ {
		approx, targets, err := indep.approximate(Target{Family: l3cache.FamilyName, Decay: 0.4})
		if err != nil {
			t.Fatal(err)
		}
		report, err := indep.pipeline(approx, targets, prior)
		if err != nil {
			t.Fatal(err)
		}
		prior = append(prior, report)
	}
	indepTotal := indep.Env().Simulations() - base

	// Shared flow pays sampling once; independent pays it k times. The
	// shared total includes the corpus, so compare sampling counts
	// directly.
	samplingCost := uint64(cfg.SampleTemplates * cfg.SampleSims)
	if sharedTotal > uint64(cfg.CorpusSimsPerTemplate*6)+samplingCost+indepTotal {
		t.Fatalf("shared flow did not save simulations: shared=%d indep=%d", sharedTotal, indepTotal)
	}
	t.Logf("shared=%d sims for %d targets; independent=%d sims (excl. corpus)", sharedTotal, k, indepTotal)
}

// TestRunPerEventSharedErrors: the family and decay are checked as Run
// checks a family target, before anything is simulated. A NaN decay
// used to run the corpus, the sample and a target's optimization before
// it failed to journal; decay 0 used to build the corpus and then fail,
// where Run reads it as 1.
func TestRunPerEventSharedErrors(t *testing.T) {
	for _, tc := range []struct {
		name    string
		family  string
		decay   float64
		wantErr string
	}{
		{"unknown family", "no_such_family", 0.4, `core: unit "l3cache" has no family "no_such_family"`},
		{"NaN decay", l3cache.FamilyName, math.NaN(), "core: decay NaN outside (0, 1]"},
		{"decay above 1", l3cache.FamilyName, 1.5, "core: decay 1.5 outside (0, 1]"},
	} {
		flow := NewFlow(l3cache.New(), smallConfig(23))
		_, err := flow.RunPerEventShared(context.Background(), tc.family, tc.decay)
		if err == nil || !strings.HasPrefix(err.Error(), tc.wantErr) {
			t.Errorf("%s: %v, want %q", tc.name, err, tc.wantErr)
		}
		if n := flow.Env().Simulations(); n != 0 {
			t.Errorf("%s: the refused campaign simulated %d instances", tc.name, n)
		}
		flow.Close()
	}

	flow := NewFlow(l3cache.New(), smallConfig(23))
	defer flow.Close()
	reports, err := flow.RunPerEventShared(context.Background(), l3cache.FamilyName, 0)
	if err != nil {
		t.Fatalf("decay 0: %v, want it read as 1", err)
	}
	for _, ev := range reports[0].Target.Events() {
		if w := reports[0].Target.Weight(ev); w != 1 {
			t.Fatalf("decay 0: event %d weighs %v, want 1 (decay 1)", ev, w)
		}
	}
}

func TestRunPerEventSharedAccounting(t *testing.T) {
	flow := NewFlow(l3cache.New(), smallConfig(24))
	reports, err := flow.RunPerEventShared(context.Background(), l3cache.FamilyName, 0.4)
	if err != nil {
		t.Fatal(err)
	}
	var sum uint64
	for _, r := range reports {
		if r.TotalSims == 0 {
			t.Fatal("per-target accounting missing")
		}
		sum += r.TotalSims
	}
	// The per-target totals (own spend + shared share) must not exceed
	// the environment's grand total.
	if sum > flow.Env().Simulations() {
		t.Fatalf("per-target sims sum %d exceeds environment total %d", sum, flow.Env().Simulations())
	}
}

// TestPerEventResumeSkipsFinishedTargets: the per-event composition
// checkpoints like every other campaign, so a run killed right after
// target k's harvest resumes without paying for targets 1..k again — it
// appends no record for them and simulates at least their simulations
// fewer than the uninterrupted run.
func TestPerEventResumeSkipsFinishedTargets(t *testing.T) {
	const k = 2
	cfg := Config{
		Seed: 25, Workers: 2, CorpusSimsPerTemplate: 150, TopTemplates: 2, Subranges: 2,
		SampleTemplates: 6, SampleSims: 10, OptIterations: 3, OptDirections: 5, OptSims: 12, BestSims: 80,
	}
	run := func(path string, rec *obs.Recorder, kill int) ([]*Report, *Flow, error) {
		c := cfg
		c.Journal, c.Obs = path, rec
		flow, err := New(l3cache.New(), c)
		if err != nil {
			t.Fatal(err)
		}
		if kill > 0 {
			flow.Journal().Writer().FailAppends(kill, 0)
		}
		reports, err := flow.RunPerEventShared(context.Background(), l3cache.FamilyName, 0.4)
		flow.Close()
		return reports, flow, err
	}
	records := func(path string) []journal.Record {
		recs, w, err := journal.Recover(path, nil, nil)
		if err != nil {
			t.Fatal(err)
		}
		w.Close()
		return recs
	}
	simulated := func(rec *obs.Recorder) uint64 {
		return rec.Metrics.Snapshot().Counters["sim.instances_completed"]
	}

	dir := t.TempDir()
	baseRec := obs.NewRecorder()
	want, _, err := run(filepath.Join(dir, "baseline.journal"), baseRec, 0)
	if err != nil {
		t.Fatal(err)
	}
	if len(want) <= k {
		t.Fatalf("campaign has %d targets, need more than %d", len(want), k)
	}
	baseline := records(filepath.Join(dir, "baseline.journal"))
	kill, harvests := 0, 0
	for i, r := range baseline {
		if r.Type == "harvest" {
			if harvests++; harvests == k {
				kill = i + 1 // the append right after target k's harvest
			}
		}
	}
	if harvests != len(want) {
		t.Fatalf("journal holds %d harvest records for %d targets", harvests, len(want))
	}

	path := filepath.Join(dir, "killed.journal")
	if _, _, err := run(path, nil, kill); !errors.Is(err, journal.ErrInjected) {
		t.Fatalf("victim err = %v, want the injected kill", err)
	}
	resumedRec := obs.NewRecorder()
	got, survivor, err := run(path, resumedRec, 0)
	if err != nil {
		t.Fatal(err)
	}
	if !reflect.DeepEqual(got, want) {
		t.Fatal("resumed per-event reports diverged from the uninterrupted run")
	}
	if n := survivor.Journal().Writer().Appends(); n != len(baseline) {
		t.Fatalf("resumed journal holds %d records, want the baseline's %d (nothing re-appended)", n, len(baseline))
	}
	if !reflect.DeepEqual(records(path)[:kill], baseline[:kill]) {
		t.Fatal("resume rewrote the finished targets' records")
	}
	var finished uint64
	for _, r := range want[:k] {
		finished += r.Phase("optimization").Counts.Sims() + r.Phase("best").Counts.Sims()
	}
	if base, resumed := simulated(baseRec), simulated(resumedRec); resumed+finished > base {
		t.Fatalf("resumed run simulated %d instances, uninterrupted %d: the %d of targets 1..%d were paid twice",
			resumed, base, finished, k)
	}
}
