package core

import (
	"fmt"
	"reflect"
	"strings"
	"testing"

	"repro/internal/duv/iounit"
	"repro/internal/opt"
	"repro/internal/tac"
)

// TestEngineSelection runs the flow under every engine: it harvests a
// valid template and heads its optimization phase with the tests each
// iteration after the first ran (only implicit filtering resamples a
// centre). The goldens pin the default engine's reports byte for byte,
// and TestInvarianceMatrix's engine rows every engine's determinism.
func TestEngineSelection(t *testing.T) {
	for _, name := range opt.EngineNames() {
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
			if len(report.Progress) < 2 {
				t.Fatalf("%d optimization iterations, want at least 2", len(report.Progress))
			}
			header := report.Phase("optimization").Description
			for i := 1; i < len(report.Progress); i++ {
				ran := report.Progress[i].Evals - report.Progress[i-1].Evals
				if want := fmt.Sprintf(" x %d tests x ", ran); !strings.Contains(header, want) {
					t.Errorf("optimization header %q, but iteration %d ran %d tests", header, i+1, ran)
				}
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
