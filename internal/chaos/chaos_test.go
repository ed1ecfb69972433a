package chaos

import (
	"context"
	"path/filepath"
	"runtime"
	"testing"
	"time"

	"repro/internal/core"
	"repro/internal/duv/iounit"
	"repro/internal/journal"
)

// chaosConfig is deliberately tiny: the sweep reruns the campaign twice
// per kill point, so every simulation here is paid ~2x(records) times.
func chaosConfig() core.Config {
	return core.Config{
		Seed:                  21,
		Workers:               3,
		CorpusSimsPerTemplate: 40,
		TopTemplates:          2,
		Subranges:             2,
		SampleTemplates:       6,
		SampleSims:            8,
		OptIterations:         3,
		OptDirections:         3,
		OptSims:               10,
		BestSims:              60,
	}
}

// chaosCampaign journals run's campaign on the I/O unit.
func chaosCampaign(run func(*core.Flow) (any, error)) Campaign {
	return Campaign{
		NewFlow: func(journal string) (*core.Flow, error) {
			cfg := chaosConfig()
			cfg.Journal = journal
			return core.New(iounit.New(), cfg)
		},
		Run: run,
	}
}

func runRefined(f *core.Flow) (any, error) {
	reports, err := f.Run(context.Background(), core.Target{Family: iounit.FamilyName, Decay: 0.4})
	if err != nil {
		return nil, err
	}
	return reports, nil
}

// runPerEvent is the shared-sample composition: two uncovered crc_fifo
// events, each with its own optimization and harvest.
func runPerEvent(f *core.Flow) (any, error) {
	reports, err := f.RunPerEventShared(context.Background(), iounit.FamilyName, 0.4)
	if err != nil {
		return nil, err
	}
	return reports, nil
}

// TestKillAtEveryAppendBoundary is the central robustness property: a
// flow killed at ANY journal append — cleanly at the record boundary,
// or mid-frame with a torn partial write on disk — must resume into a
// bit-identical result. The sweep covers every record the campaign
// journals, for both compositions of the flow's steps.
func TestKillAtEveryAppendBoundary(t *testing.T) {
	before := runtime.NumGoroutine()

	for _, row := range []struct {
		name    string
		run     func(*core.Flow) (any, error)
		tears   []int
		targets int // optimizations the campaign runs, each ending in a harvest
	}{
		{"family", runRefined, []int{0, 7}, 1},
		{"per_event", runPerEvent, []int{0}, 2},
	} {
		t.Run(row.name, func(t *testing.T) {
			dir := t.TempDir()
			trials, err := chaosCampaign(row.run).Sweep(dir, row.tears)
			if err != nil {
				t.Fatal(err)
			}
			if trials < 20 {
				t.Fatalf("sweep ran only %d trials; the campaign journals too few records to be a meaningful test", trials)
			}
			t.Logf("chaos sweep: %d crash+resume trials, all bit-identical", trials)
			checkEveryTargetCheckpointed(t, filepath.Join(dir, "baseline.journal"), row.targets)
		})
	}

	// Every killed flow was Closed; its workers must be gone. Allow the
	// runtime a moment to retire exiting goroutines.
	deadline := time.Now().Add(5 * time.Second)
	for {
		if n := runtime.NumGoroutine(); n <= before+2 {
			break
		} else if time.Now().After(deadline) {
			t.Fatalf("goroutine leak: %d before sweep, %d after", before, n)
		}
		time.Sleep(50 * time.Millisecond)
	}
}

// checkEveryTargetCheckpointed asserts a finished campaign's journal
// holds, for each target, its optimizer iterations followed by its
// harvest — what lets a resumed campaign skip the targets it finished.
func checkEveryTargetCheckpointed(t *testing.T, path string, targets int) {
	t.Helper()
	recs, w, err := journal.Recover(path, nil, nil)
	if err != nil {
		t.Fatal(err)
	}
	w.Close()
	harvests, iters := 0, 0
	for _, r := range recs {
		switch r.Type {
		case "opt_iter":
			iters++
		case "harvest":
			if iters == 0 {
				t.Fatalf("harvest %d has no opt_iter record before it", harvests+1)
			}
			harvests++
			iters = 0
		}
	}
	if harvests != targets {
		t.Fatalf("journal holds %d harvest records in %d, want one per target (%d)", harvests, len(recs), targets)
	}
}

// TestCrashAndResumeRejectsForeignFlow: the harness must not be able to
// resume a journal into a flow with a different config — the guard the
// whole bit-identity argument rests on.
func TestCrashAndResumeRejectsForeignFlow(t *testing.T) {
	path := filepath.Join(t.TempDir(), "victim.journal")
	c := chaosCampaign(runRefined)
	victim, err := c.NewFlow(path)
	if err != nil {
		t.Fatal(err)
	}
	victim.Journal().Writer().FailAppends(3, 0)
	if _, err := c.Run(victim); err == nil {
		t.Fatal("injected kill did not fire")
	}
	victim.Close()

	// Auto-resume through core.New must reject the journal: the victim's
	// journal exists but was written under a different seed.
	cfg := chaosConfig()
	cfg.Seed = 99
	cfg.Journal = path
	if other, err := core.New(iounit.New(), cfg); err == nil {
		other.Close()
		t.Fatal("foreign flow resumed a mismatched journal")
	}
}
