package core

import (
	"bytes"
	"path/filepath"
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

// TestBlendTACPriorOrdering: the knowledge-base TAC prior reorders a
// coarse-grained ranking exactly as specified — boosted templates are
// promoted, an empty prior is a no-op.
func TestBlendTACPriorOrdering(t *testing.T) {
	ranked := []tac.TemplateScore{
		{Name: "a", Score: 0.5},
		{Name: "b", Score: 0.3},
		{Name: "c", Score: 0.1},
	}
	blended := blendTACPrior(ranked, map[string]float64{"c": 0.45})
	if blended[0].Name != "c" || blended[0].Score != 0.55 {
		t.Fatalf("boosted template not promoted: %+v", blended)
	}
	// Empty prior: untouched.
	same := blendTACPrior(ranked, nil)
	for i := range ranked {
		if same[i] != ranked[i] {
			t.Fatalf("nil prior changed ranking at %d: %+v", i, same[i])
		}
	}
}
