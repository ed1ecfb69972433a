package figures

import (
	"os"
	"path/filepath"
	"slices"
	"strings"
	"testing"

	"repro/internal/coverage"
	"repro/internal/duv/ifu"
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

func TestFig3Structure(t *testing.T) {
	if testing.Short() {
		t.Skip("figure runs skipped in -short")
	}
	res, err := Fig3(tinyOpts(1))
	if err != nil {
		t.Fatal(err)
	}
	if res.Name != "fig3" || res.Sims == 0 || len(res.Reports) == 0 {
		t.Fatalf("result = %+v", res)
	}
	for _, want := range []string{"crc_004", "crc_096", "before", "sampling", "optimization", "best"} {
		if !strings.Contains(res.Text, want) {
			t.Errorf("fig3 text missing %q", want)
		}
	}
}

func TestFig4Structure(t *testing.T) {
	if testing.Short() {
		t.Skip("figure runs skipped in -short")
	}
	res, err := Fig4(tinyOpts(1))
	if err != nil {
		t.Fatal(err)
	}
	for _, want := range []string{"byp_reqs01", "byp_reqs16", "refinement rounds"} {
		if !strings.Contains(res.Text, want) {
			t.Errorf("fig4 text missing %q", want)
		}
	}
	// The harvested template must beat the corpus on the mid ladder.
	final := res.Reports[len(res.Reports)-1]
	before := final.Phase("before").Counts
	best := final.Phase("best").Counts
	deeperBefore, deeperBest := 0, 0
	for id := 0; id < 16; id++ {
		if before.Hits(id) > 0 {
			deeperBefore = id + 1
		}
		if best.Hits(id) > 0 {
			deeperBest = id + 1
		}
	}
	if deeperBest < deeperBefore {
		t.Errorf("best covers to level %d, corpus to %d", deeperBest, deeperBefore)
	}
}

// TestFig5Entry7StaysUncovered checks claim 5 at the development seed
// and at three held-out seeds (401-403): the events the best phase never
// hit are exactly the 32 entry-7 events, and sampling uncovers events
// the corpus never hit.
func TestFig5Entry7StaysUncovered(t *testing.T) {
	if testing.Short() {
		t.Skip("figure runs skipped in -short")
	}
	unit := ifu.New()
	cross := unit.Cross()
	ids, err := unit.Model().IDs(cross.EventNames())
	if err != nil {
		t.Fatal(err)
	}
	// EventNames is row-major and entry is the first dimension, so the
	// events at entry 7 are the stride events from 7*stride on.
	if cross.Dims[0].Name != "entry" {
		t.Fatalf("first cross dimension is %q, want entry", cross.Dims[0].Name)
	}
	stride := cross.Size() / len(cross.Dims[0].Values)
	var entry7 []int
	for i := 7 * stride; i < 8*stride; i++ {
		entry7 = append(entry7, i)
	}
	if len(entry7) != 32 {
		t.Fatalf("%d entry-7 events, want 32", len(entry7))
	}
	for _, seed := range []uint64{1, 401, 402, 403} {
		res, err := Fig5(tinyOpts(seed))
		if err != nil {
			t.Fatal(err)
		}
		if !strings.Contains(res.Text, "entry7 events still uncovered: 32/32") {
			t.Errorf("seed %d: fig5 must report the 32 unhittable events:\n%s", seed, res.Text)
		}
		best := res.Reports[0].Phase("best").Counts
		var never []int
		for i, id := range ids {
			if best.Hits(id) == 0 {
				never = append(never, i)
			}
		}
		if !slices.Equal(never, entry7) {
			t.Errorf("seed %d: best phase never hit cross events %v, want the entry-7 events %v", seed, never, entry7)
		}
		byPhase := StatusCountsByPhase(res.Reports[0], ids)
		// Sampling must have uncovered a substantial number of events
		// relative to the corpus (the paper's Fig. 5 narrative).
		if byPhase["sampling"][coverage.StatusNever] >= byPhase["before"][coverage.StatusNever] {
			t.Errorf("seed %d: sampling did not reduce never-hit: before=%d sampling=%d",
				seed, byPhase["before"][coverage.StatusNever], byPhase["sampling"][coverage.StatusNever])
		}
		t.Logf("seed %d: best never-hit %d, sampling %d, before %d", seed,
			byPhase["best"][coverage.StatusNever], byPhase["sampling"][coverage.StatusNever], byPhase["before"][coverage.StatusNever])
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
