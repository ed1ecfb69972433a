package core

import (
	"context"
	"testing"

	"repro/internal/duv/iounit"
)

// paperConfig mirrors the paper's Fig. 3 budgets at one tenth of the
// corpus scale: sampling 200 tests x 100 sims, optimization 7 iterations
// x 20 tests x 200 sims, best 10000 sims.
func paperConfig(seed uint64) Config {
	return Config{
		Seed:                  seed,
		CorpusSimsPerTemplate: 11150, // ~66.9k total across 6 templates
		TopTemplates:          2,
		Subranges:             4,
		SampleTemplates:       200,
		SampleSims:            100,
		OptIterations:         7,
		OptDirections:         19, // +1 center = 20 tests per iteration
		OptSims:               200,
		BestSims:              10000,
	}
}

// TestPaperScaleIOUnit exercises the Fig. 3 scenario end to end: two
// refinement rounds must cover crc_064 (uncovered by ~67k regression
// sims) and push the family's hit rates far beyond the corpus. Skipped
// in -short; the full run takes a few seconds.
func TestPaperScaleIOUnit(t *testing.T) {
	if testing.Short() {
		t.Skip("paper-scale run skipped in -short")
	}
	flow := NewFlow(iounit.New(), paperConfig(1))
	reports, err := flow.Run(context.Background(), Target{Family: iounit.FamilyName, Decay: 0.4, Rounds: 5})
	if err != nil {
		t.Fatal(err)
	}
	m := flow.Env().Unit().Model()
	final := reports[len(reports)-1]
	table, err := final.FormatFamilyTable(m, iounit.FamilyName)
	if err != nil {
		t.Fatal(err)
	}
	t.Logf("final round (%d rounds run):\n%s", len(reports), table)
	t.Logf("%s", final.FormatProgress())

	best := final.Phase("best").Counts
	id64 := m.MustLookup("crc_064")
	if best.Hits(id64) == 0 {
		t.Errorf("crc_064 still uncovered after paper-scale refinement")
	}
	id32 := m.MustLookup("crc_032")
	if best.HitRate(id32) < 0.5 {
		t.Errorf("crc_032 best rate = %.3f, want > 0.5", best.HitRate(id32))
	}
}
