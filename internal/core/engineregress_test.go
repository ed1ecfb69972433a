package core

import (
	"bytes"
	"encoding/json"
	"flag"
	"os"
	"path/filepath"
	"testing"
)

// The default-engine byte-identity lock: the pluggable-engine refactor
// must not change a single bit of the reports the hard-wired
// implicit-filtering flow produced. The golden files were generated on
// the pre-refactor code (opt.ImplicitFiltering called directly from the
// flow) and must never be regenerated casually — a diff here means the
// default engine's evaluation order, RNG consumption, or history
// bookkeeping drifted from the paper flow. TestInvarianceMatrix checks
// each golden scenario's baseline against its file.
//
//	go test ./internal/core -run 'TestInvarianceMatrix/.*/golden' -update-engine-golden
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
