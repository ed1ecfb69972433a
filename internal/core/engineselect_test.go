package core

import (
	"reflect"
	"testing"

	"repro/internal/duv/iounit"
	"repro/internal/opt"
	"repro/internal/tac"
)

// TestEngineSelection runs the full flow under every registered
// non-default engine and checks the run completes and harvests a valid
// template. The default engine's reports are pinned byte for byte by the
// goldens, and every engine's determinism across workers, journaling and
// replay by TestInvarianceMatrix's engine rows.
func TestEngineSelection(t *testing.T) {
	for _, name := range opt.EngineNames() {
		if name == opt.DefaultEngine {
			continue
		}
		t.Run(name, func(t *testing.T) {
			t.Parallel()
			cfg := smallConfig(5)
			cfg.Engine = name
			flow := NewFlow(iounit.New(), cfg)
			defer flow.Close()
			report, err := runOne(flow, Target{Family: iounit.FamilyName})
			if err != nil {
				t.Fatal(err)
			}
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
		if err := flow.buildCorpus(); err != nil {
			t.Fatal(err)
		}
		target, _, err := flow.approximate(Target{Family: iounit.FamilyName})
		if err != nil {
			t.Fatal(err)
		}
		best, _, err := flow.coarseSearch(target, nil)
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
