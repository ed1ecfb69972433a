package core

import (
	"bytes"
	"path/filepath"
	"reflect"
	"testing"

	"repro/internal/duv/iounit"
	"repro/internal/opt"
	"repro/internal/tac"
)

// TestEngineSelection runs the full flow under every registered
// non-default engine (the default is pinned byte-for-byte by
// TestDefaultEngineReportGolden) and checks the runs complete, harvest a
// valid template, and are deterministic rerun-to-rerun.
func TestEngineSelection(t *testing.T) {
	for _, name := range opt.EngineNames() {
		if name == opt.DefaultEngine {
			continue
		}
		t.Run(name, func(t *testing.T) {
			t.Parallel()
			cfg := smallConfig(5)
			cfg.Engine = name
			run := func() *Report {
				flow := NewFlow(iounit.New(), cfg)
				report, err := runOne(flow, Target{Family: iounit.FamilyName})
				if err != nil {
					t.Fatal(err)
				}
				return report
			}
			report := run()
			if len(report.Phases) != 4 {
				t.Fatalf("phases = %d, want 4", len(report.Phases))
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
			if !bytes.Equal(canonicalReport(t, report), canonicalReport(t, run())) {
				t.Fatalf("engine %s is not deterministic across identical runs", name)
			}
		})
	}
}

// TestBlendTACPriorOrdering: the knowledge-base TAC prior reorders the
// coarse-grained search — the boosted template is promoted with the
// boost added to its score, the others keep their order, and an empty
// prior is a no-op.
func TestBlendTACPriorOrdering(t *testing.T) {
	coarse := func(prior map[string]float64) []tac.TemplateScore {
		cfg := smallConfig(3)
		cfg.TopTemplates = len(iounit.New().BaseTemplates())
		cfg.TACPrior = prior
		flow := NewFlow(iounit.New(), cfg)
		target, _, err := flow.approximate(Target{Family: iounit.FamilyName})
		if err != nil {
			t.Fatal(err)
		}
		if err := flow.ensureCorpus(); err != nil {
			t.Fatal(err)
		}
		best, _, err := flow.coarseSearch(target)
		if err != nil {
			t.Fatal(err)
		}
		return best
	}
	plain := coarse(nil)
	if len(plain) < 2 {
		t.Fatalf("coarse search ranked %d templates, want at least 2", len(plain))
	}
	if same := coarse(map[string]float64{}); !reflect.DeepEqual(same, plain) {
		t.Fatalf("empty prior changed ranking: %v, want %v", same, plain)
	}
	last := plain[len(plain)-1]
	boosted := coarse(map[string]float64{last.Name: 10})
	promoted := last
	promoted.Score += 10
	want := append([]tac.TemplateScore{promoted}, plain[:len(plain)-1]...)
	if !reflect.DeepEqual(boosted, want) {
		t.Fatalf("boosted ranking = %v, want %v", boosted, want)
	}
}

// TestEngineJournalReplay: a journaled flow under a non-default engine
// replays to bit-identical reports, and the journal refuses a flow
// configured with a different engine (the engine is result-relevant, so
// it is part of the config hash).
func TestEngineJournalReplay(t *testing.T) {
	cfg := smallConfig(9)
	cfg.Engine = "ranker"
	cfg.Journal = filepath.Join(t.TempDir(), "flow.journal")

	flow, err := New(iounit.New(), cfg)
	if err != nil {
		t.Fatal(err)
	}
	report1, err := runOne(flow, Target{Family: iounit.FamilyName})
	flow.Close()
	if err != nil {
		t.Fatal(err)
	}

	// Same config over the completed journal: pure replay, same bytes.
	flow2, err := New(iounit.New(), cfg)
	if err != nil {
		t.Fatal(err)
	}
	report2, err := runOne(flow2, Target{Family: iounit.FamilyName})
	flow2.Close()
	if err != nil {
		t.Fatal(err)
	}
	if !bytes.Equal(canonicalReport(t, report1), canonicalReport(t, report2)) {
		t.Fatal("replayed report differs from the original run")
	}

	// A different engine must not silently resume this journal.
	cfg.Engine = "nelder_mead"
	if _, err := New(iounit.New(), cfg); err == nil {
		t.Fatal("journal written under ranker accepted by a nelder_mead flow")
	}
}
