package core

import (
	"bytes"
	"context"
	"encoding/json"
	"flag"
	"os"
	"path/filepath"
	"testing"

	"repro/internal/duv"
	"repro/internal/duv/iounit"
	"repro/internal/duv/l3cache"
	"repro/internal/duv/noc"
)

// The default-engine byte-identity lock: the pluggable-engine refactor
// must not change a single bit of the reports the hard-wired
// implicit-filtering flow produced. The golden files were generated on
// the pre-refactor code (opt.ImplicitFiltering called directly from the
// flow) and must never be regenerated casually — a diff here means the
// default engine's evaluation order, RNG consumption, or history
// bookkeeping drifted from the paper flow.
//
//	go test ./internal/core -run TestDefaultEngineReportGolden -update-engine-golden
var updateEngineGolden = flag.Bool("update-engine-golden", false, "rewrite the default-engine report goldens (ONLY for deliberate behavior changes)")

// canonicalReport projects a Report into a deterministic JSON document
// covering every result-relevant field: phase aggregates bit-for-bit,
// the optimizer trajectory, the harvested template text and weights.
func canonicalReport(t *testing.T, r *Report) []byte {
	t.Helper()
	type phase struct {
		Name        string   `json:"name"`
		Description string   `json:"description"`
		Hits        []uint64 `json:"hits"`
		Sims        uint64   `json:"sims"`
	}
	doc := struct {
		Unit         string    `json:"unit"`
		TargetEvents []int     `json:"target_events"`
		Chosen       []any     `json:"chosen"`
		Phases       []phase   `json:"phases"`
		BestWeights  []float64 `json:"best_weights"`
		BestTemplate string    `json:"best_template"`
		Progress     any       `json:"progress"`
		TotalSims    uint64    `json:"total_sims"`
	}{
		Unit:         r.Unit,
		TargetEvents: r.TargetEvents,
		BestWeights:  r.BestWeights,
		Progress:     r.Progress,
		TotalSims:    r.TotalSims,
	}
	for _, ts := range r.ChosenTemplates {
		doc.Chosen = append(doc.Chosen, map[string]any{"name": ts.Name, "score": ts.Score, "sims": ts.Sims})
	}
	for _, ph := range r.Phases {
		hits, sims := ph.Counts.Raw()
		doc.Phases = append(doc.Phases, phase{Name: ph.Name, Description: ph.Description, Hits: hits, Sims: sims})
	}
	if r.BestTemplate != nil {
		doc.BestTemplate = r.BestTemplate.String()
	}
	data, err := json.MarshalIndent(doc, "", "  ")
	if err != nil {
		t.Fatal(err)
	}
	return append(data, '\n')
}

func checkReportGolden(t *testing.T, name string, reports []*Report) {
	t.Helper()
	var buf bytes.Buffer
	for _, r := range reports {
		buf.Write(canonicalReport(t, r))
	}
	path := filepath.Join("testdata", name)
	if *updateEngineGolden {
		if err := os.MkdirAll("testdata", 0o755); err != nil {
			t.Fatal(err)
		}
		if err := os.WriteFile(path, buf.Bytes(), 0o644); err != nil {
			t.Fatal(err)
		}
		return
	}
	want, err := os.ReadFile(path)
	if err != nil {
		t.Fatalf("missing golden %s (run with -update-engine-golden to create): %v", name, err)
	}
	if !bytes.Equal(buf.Bytes(), want) {
		t.Fatalf("default-engine report diverged from the pre-refactor golden %s\ngot %d bytes, want %d bytes\n--- got ---\n%.2000s\n--- want ---\n%.2000s",
			name, buf.Len(), len(want), buf.String(), want)
	}
}

// TestDefaultEngineReportGolden runs small deterministic flows of every
// target mode and both compositions with the default configuration (no
// engine named — the implicit-filtering path) and compares the full reports
// byte-for-byte against goldens captured on the code before the change
// they lock: the family and l3 files before the opt.Engine refactor,
// the cross, events and per-event files before the steps of the flow
// were factored into one pipeline. A journaled row must reproduce its
// unjournaled golden: journaling never perturbs a report.
func TestDefaultEngineReportGolden(t *testing.T) {
	famCfg := Config{
		Seed:                  7,
		CorpusSimsPerTemplate: 120,
		TopTemplates:          2,
		Subranges:             2,
		SampleTemplates:       8,
		SampleSims:            12,
		OptIterations:         4,
		OptDirections:         4,
		OptSims:               15,
		BestSims:              100,
		Workers:               3,
	}
	crossCfg := Config{
		Seed:                  11,
		CorpusSimsPerTemplate: 150,
		TopTemplates:          2,
		Subranges:             2,
		SampleTemplates:       6,
		SampleSims:            10,
		OptIterations:         3,
		OptDirections:         5,
		OptSims:               12,
		BestSims:              80,
		Workers:               2,
	}
	ctx := context.Background()
	run := func(target Target) func(*Flow) ([]*Report, error) {
		return func(f *Flow) ([]*Report, error) { return f.Run(ctx, target) }
	}
	perEvent := func(f *Flow) ([]*Report, error) { return f.RunPerEventShared(ctx, l3cache.FamilyName, 0.5) }
	for _, tc := range []struct {
		name, golden string
		unit         duv.DUV
		cfg          Config
		journaled    bool
		run          func(*Flow) ([]*Report, error)
	}{
		{"family_refined", "engine_default_family.golden", iounit.New(), famCfg, false,
			run(Target{Family: iounit.FamilyName, Decay: 0.4, Rounds: 2})},
		{"family_l3", "engine_default_l3.golden", l3cache.New(), crossCfg, false,
			run(Target{Family: l3cache.FamilyName, Decay: 0.5})},
		{"cross_noc", "engine_default_cross_noc.golden", noc.New(), crossCfg, false, run(Target{Cross: noc.CrossName})},
		{"events_l3", "engine_default_events_l3.golden", l3cache.New(), crossCfg, false,
			run(Target{Events: []string{"byp_reqs03"}})},
		{"per_event_l3", "engine_default_per_event_l3.golden", l3cache.New(), crossCfg, false, perEvent},
		{"per_event_l3_journaled", "engine_default_per_event_l3.golden", l3cache.New(), crossCfg, true, perEvent},
	} {
		t.Run(tc.name, func(t *testing.T) {
			if tc.journaled {
				tc.cfg.Journal = filepath.Join(t.TempDir(), "flow.journal")
			}
			flow, err := New(tc.unit, tc.cfg)
			if err != nil {
				t.Fatal(err)
			}
			reports, err := tc.run(flow)
			flow.Close()
			if err != nil {
				t.Fatal(err)
			}
			checkReportGolden(t, tc.golden, reports)
		})
	}
}
