package service

import (
	"context"
	"os"
	"path/filepath"
	"testing"

	"repro/internal/atomicfile"
	"repro/internal/core"
	"repro/internal/duv/iounit"
	"repro/internal/obs"
)

// campaignFiles reads the bytes a finished campaign left in dir.
func campaignFiles(t *testing.T, dir string) (report, journal string) {
	t.Helper()
	r, err := os.ReadFile(filepath.Join(dir, "report.json"))
	if err != nil {
		t.Fatal(err)
	}
	j, err := os.ReadFile(filepath.Join(dir, "flow.journal"))
	if err != nil {
		t.Fatal(err)
	}
	return string(r), string(j)
}

// directRun runs spec straight through core, journaled into dir, and
// writes its report.json there the way the service does.
func directRun(t *testing.T, spec Spec, dir string) {
	t.Helper()
	cfg := spec.coreConfig(0)
	cfg.Journal = filepath.Join(dir, "flow.journal")
	unit := iounit.New()
	flow, err := core.New(unit, cfg)
	if err != nil {
		t.Fatal(err)
	}
	defer flow.Close()
	reports, err := flow.Run(context.Background(), spec.target())
	if err != nil {
		t.Fatal(err)
	}
	out := make([]*ReportJSON, len(reports))
	for i, r := range reports {
		out[i] = NewReportJSON(r, unit.Model())
	}
	if err := atomicfile.WriteJSON(filepath.Join(dir, reportFile), out); err != nil {
		t.Fatal(err)
	}
}

// TestCorpusCacheBitIdentity is the invariant "a report is
// byte-identical whether its corpus was built or loaded": one spec run
// cold through the service, warm through the same service (its corpus
// replayed from the cache) and directly through core leaves the same
// report.json and flow.journal bytes, and the warm run simulates
// exactly the corpus fewer instances.
func TestCorpusCacheBitIdentity(t *testing.T) {
	for _, workers := range []int{1, 2} {
		spec := tinySpec()
		spec.Config.Workers = workers
		rec := &obs.Recorder{Metrics: obs.NewRegistry()}
		svc := newService(t, Config{Rec: rec})
		counters := func() (hits, instances uint64) {
			return rec.Counter("sim.corpus_cache.hits").Value(), rec.Counter("sim.instances_completed").Value()
		}
		run := func() (report, journal string, hits, instances uint64) {
			hits0, inst0 := counters()
			id, err := svc.Submit(spec)
			if err != nil {
				t.Fatal(err)
			}
			if st := waitDone(t, svc, id); st.State != StateDone {
				t.Fatalf("workers %d: state = %q (error %q), want done", workers, st.State, st.Error)
			}
			report, journal = campaignFiles(t, filepath.Join(svc.cfg.DataDir, id))
			hits1, inst1 := counters()
			return report, journal, hits1 - hits0, inst1 - inst0
		}
		coldReport, coldJournal, coldHits, coldInstances := run()
		warmReport, warmJournal, warmHits, warmInstances := run()
		dir := t.TempDir()
		directRun(t, spec, dir)
		directReport, directJournal := campaignFiles(t, dir)

		if coldHits != 0 || warmHits != 1 {
			t.Fatalf("workers %d: corpus cache hits cold %d, warm %d; want 0 and 1", workers, coldHits, warmHits)
		}
		corpusSims := uint64(len(iounit.New().BaseTemplates()) * spec.Config.CorpusSims)
		if coldInstances-warmInstances != corpusSims {
			t.Fatalf("workers %d: warm run simulated %d instances, cold %d; want exactly the corpus (%d) fewer",
				workers, warmInstances, coldInstances, corpusSims)
		}
		if warmReport != coldReport || directReport != coldReport {
			t.Fatalf("workers %d: report.json differs between cold, warm and direct runs", workers)
		}
		if warmJournal != coldJournal || directJournal != coldJournal {
			t.Fatalf("workers %d: flow.journal differs between cold, warm and direct runs", workers)
		}
	}
}

// TestCorpusCacheConcurrentCampaigns: two campaigns with one corpus key
// running at once may both build it; both store identical records and
// every campaign, including a later warm one, reports the same bytes.
func TestCorpusCacheConcurrentCampaigns(t *testing.T) {
	svc, release := gatedService(t, Config{MaxRunning: 2})
	defer release()
	var ids []string
	for i := 0; i < 2; i++ {
		id, err := svc.Submit(tinySpec())
		if err != nil {
			t.Fatal(err)
		}
		ids = append(ids, id)
	}
	for _, id := range ids {
		waitState(t, svc, id, StateRunning)
	}
	release() // both flows start their corpus builds together
	id, err := svc.Submit(tinySpec())
	if err != nil {
		t.Fatal(err)
	}
	ids = append(ids, id)

	var want string
	for i, id := range ids {
		if st := waitDone(t, svc, id); st.State != StateDone {
			t.Fatalf("campaign %s state = %q (error %q), want done", id, st.State, st.Error)
		}
		report, _ := campaignFiles(t, filepath.Join(svc.cfg.DataDir, id))
		if i == 0 {
			want = report
		}
		if report != want {
			t.Fatalf("campaign %s report.json differs from campaign %s's", id, ids[0])
		}
	}
}
