package figures

import (
	"os"
	"path/filepath"
	"strings"
	"testing"

	"repro/internal/duv/iounit"
)

// tinyOpts keeps figure tests fast; the optimization budgets are fixed
// by the figure definitions, so these still take a few seconds each.
func tinyOpts(seed uint64) Options {
	return Options{Scale: 0.005, Seed: seed, Rounds: 1}
}

func TestOptionsDefaults(t *testing.T) {
	o := Options{}.withDefaults()
	if o.Scale != 0.1 || o.Seed != 1 || o.Rounds != 5 {
		t.Fatalf("defaults = %+v", o)
	}
}

func TestScaled(t *testing.T) {
	if scaled(1000, 0.1) != 100 {
		t.Fatal("scaled(1000, 0.1) != 100")
	}
	if scaled(3, 0.001) != 1 {
		t.Fatal("scaled should floor at 1")
	}
	// The largest budget, Fig. 4's corpus, still fits at MaxScale; a
	// scale above it is refused before anything is simulated, instead of
	// overflowing to a negative int that floors to a one-sim budget.
	if got := scaled(1000000, MaxScale); got != 9e18 {
		t.Fatalf("scaled(1e6, MaxScale) = %d, want 9e18", got)
	}
	if _, err := Fig4(Options{Scale: 1e300, Seed: 1, Rounds: 1}); err == nil ||
		!strings.Contains(err.Error(), "scale 1e+300: want at most 9e+12, or the fig4 budgets overflow") {
		t.Fatalf("Fig4 at scale 1e300: %v, want the overflow refused", err)
	}
}

// TestJournalDirIsCreated: a JournalDir that does not exist yet is
// created when the figure's flow is built, and one that cannot exist
// fails there — before anything is simulated.
func TestJournalDirIsCreated(t *testing.T) {
	dir := filepath.Join(t.TempDir(), "ckpt", "run1")
	opts := tinyOpts(1)
	opts.JournalDir = dir
	flow, err := opts.newFlow("fig3", iounit.New(), budget{corpus: 100, topTemplates: 1, sampleTests: 1})
	if err != nil {
		t.Fatal(err)
	}
	flow.Close()
	if _, err := os.Stat(filepath.Join(dir, "fig3.journal")); err != nil {
		t.Fatalf("no journal in the created directory: %v", err)
	}
	if n := flow.Env().Simulations(); n != 0 {
		t.Fatalf("building the flow simulated %d instances", n)
	}

	file := filepath.Join(t.TempDir(), "file")
	if err := os.WriteFile(file, nil, 0o644); err != nil {
		t.Fatal(err)
	}
	opts.JournalDir = filepath.Join(file, "ckpt")
	if _, err := Fig3(opts); err == nil {
		t.Fatal("a journal directory under a regular file should fail")
	}
}

func TestFig6Progress(t *testing.T) {
	if testing.Short() {
		t.Skip("figure runs skipped in -short")
	}
	res, err := Fig6(tinyOpts(1))
	if err != nil {
		t.Fatal(err)
	}
	if !strings.Contains(res.Text, "iter") {
		t.Fatalf("fig6 text missing iterations:\n%s", res.Text)
	}
	final := res.Reports[len(res.Reports)-1]
	if len(final.Progress) != 25 {
		t.Errorf("L3 optimization should run 25 iterations, got %d", len(final.Progress))
	}
}

func TestCompositeReport(t *testing.T) {
	if testing.Short() {
		t.Skip("figure runs skipped in -short")
	}
	res, err := Fig3(Options{Scale: 0.005, Seed: 2, Rounds: 2})
	if err != nil {
		t.Fatal(err)
	}
	for _, want := range []string{"crc_004", "crc_096", "before", "sampling", "optimization", "best", "refinement rounds"} {
		if !strings.Contains(res.Text, want) {
			t.Errorf("fig3 text missing %q", want)
		}
	}
	composite := compositeReport(res.Reports)
	if len(composite.Phases) != 4 {
		t.Fatalf("composite phases = %d", len(composite.Phases))
	}
	if composite.Phases[0].Name != "before" {
		t.Fatal("composite must lead with the first round's corpus")
	}
	// The composite 'before' is the FIRST round's corpus, not the last's.
	if len(res.Reports) > 1 {
		first := res.Reports[0].Phase("before").Counts.Sims()
		if composite.Phases[0].Counts.Sims() != first {
			t.Fatal("composite before-phase is not round 1's")
		}
	}
}
