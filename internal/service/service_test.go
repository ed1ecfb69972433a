package service

import (
	"bytes"
	"context"
	"errors"
	"maps"
	"os"
	"path/filepath"
	"reflect"
	"strings"
	"sync"
	"testing"
	"time"

	"repro/internal/core"
	"repro/internal/duv"
	"repro/internal/duv/iounit"
	"repro/internal/farm"
	"repro/internal/obs"
)

// tinySpec is the fast iounit campaign every service test runs: big
// enough to exercise all flow phases, small enough to finish in well
// under a second.
func tinySpec() Spec {
	return Spec{
		Unit:   iounit.UnitName,
		Family: iounit.FamilyName,
		Decay:  0.4,
		Seed:   21,
		Config: SpecConfig{
			CorpusSims:      40,
			TopTemplates:    2,
			Subranges:       2,
			SampleTemplates: 6,
			SampleSims:      8,
			OptIterations:   3,
			OptDirections:   3,
			OptSims:         10,
			BestSims:        60,
			Workers:         3,
		},
	}
}

func newService(t *testing.T, cfg Config) *Service {
	t.Helper()
	if cfg.DataDir == "" {
		cfg.DataDir = t.TempDir()
	}
	svc, err := New(cfg)
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(svc.Close)
	return svc
}

func waitDone(t *testing.T, svc *Service, id string) *State {
	t.Helper()
	ctx, cancel := context.WithTimeout(context.Background(), 60*time.Second)
	defer cancel()
	svc.Wait(ctx, id)
	st := svc.Get(id)
	if st == nil {
		t.Fatalf("campaign %s vanished", id)
	}
	return st
}

// TestSubmitRunGet runs one campaign with no farm, beside a healthy
// loopback fleet, and beside a fleet no dial reaches. A farm is
// throughput only: every row ends done with the farm-less row's
// report.json bytes. The scheduler's farm section tells the two fleets
// apart: a worker no dial reaches reads "down".
func TestSubmitRunGet(t *testing.T) {
	var want []byte
	for _, tc := range []struct {
		name   string
		farm   bool   // run chunks through a dispatcher
		worker bool   // a worker behind its address; without one every dial fails
		state  string // the worker's state in Scheduler().Farm
	}{
		{name: "local"},
		{name: "fleet", farm: true, worker: true, state: "healthy"},
		{name: "unreachable", farm: true, state: "down"},
	} {
		t.Run(tc.name, func(t *testing.T) {
			cfg := Config{}
			rec := obs.NewRecorder()
			if tc.farm {
				lb := farm.NewLoopback()
				if tc.worker {
					srv := farm.NewServer(farm.ServerOptions{Capacity: 2, DrainTimeout: 2 * time.Second})
					t.Cleanup(srv.Shutdown)
					lb.Add("w", srv, farm.Faults{})
				}
				d := farm.New([]string{"w"}, farm.Options{Dial: lb.Dial, Rec: rec})
				t.Cleanup(d.Close)
				if tc.worker {
					if err := d.WaitReady(10 * time.Second); err != nil {
						t.Fatal(err)
					}
				}
				cfg.Farm = d
			}
			svc := newService(t, cfg)
			id, err := svc.Submit(tinySpec())
			if err != nil {
				t.Fatal(err)
			}
			st := waitDone(t, svc, id)
			if st.State != StateDone {
				t.Fatalf("state = %q (error %q), want done", st.State, st.Error)
			}
			if len(st.Reports) != 1 {
				t.Fatalf("reports = %d, want 1", len(st.Reports))
			}
			r := st.Reports[0]
			if r.Unit != iounit.UnitName || r.TotalSims == 0 || r.BestTemplate == "" {
				t.Fatalf("report not populated: %+v", r)
			}
			if len(r.Phases) == 0 || len(r.TargetEvents) == 0 {
				t.Fatalf("report missing phases/targets: %+v", r)
			}
			for _, p := range r.Phases {
				if len(p.TargetHits) != len(r.TargetEvents) {
					t.Fatalf("phase %s: %d hit columns for %d targets", p.Name, len(p.TargetHits), len(r.TargetEvents))
				}
			}
			// The final reports and the campaign's progress stream are on disk.
			report, err := os.ReadFile(filepath.Join(svc.cfg.DataDir, id, "report.json"))
			if err != nil {
				t.Fatal(err)
			}
			if _, err := os.Stat(filepath.Join(svc.cfg.DataDir, id, "events.jsonl")); err != nil {
				t.Fatal(err)
			}
			if want == nil {
				want = report
			} else if !bytes.Equal(report, want) {
				t.Fatalf("report.json differs from the farm-less run's:\n%s\nwant:\n%s", report, want)
			}
			// A silent fallback would also match, so the healthy fleet must
			// have run chunks.
			if n := rec.Metrics.Snapshot().Counters["farm.chunks"]; tc.worker && n == 0 {
				t.Fatal("farm.chunks = 0 beside a healthy fleet: no chunk ran remotely")
			}
			if tc.farm && !tc.worker {
				for giveUp := time.Now().Add(10 * time.Second); rec.Counter("farm.dial_failures").Value() == 0; time.Sleep(time.Millisecond) {
					if time.Now().After(giveUp) {
						t.Fatal("farm.dial_failures = 0: no dial was made")
					}
				}
			}
			if fleet := svc.Scheduler().Farm; tc.farm && (len(fleet) != 1 || fleet[0].State != tc.state) {
				t.Fatalf("Scheduler().Farm = %+v, want worker w %s", fleet, tc.state)
			}
		})
	}
}

// TestSpecValidation: malformed submissions are rejected before they
// consume ids or disk.
func TestSpecValidation(t *testing.T) {
	svc := newService(t, Config{})
	bad := []Spec{
		{}, // no unit
		{Unit: "no_such_unit", Family: "x"},
		{Unit: iounit.UnitName}, // no target
		{Unit: iounit.UnitName, Family: "a", Cross: "b"}, // two targets
		{Unit: iounit.UnitName, Family: "no_such_family"},
		{Unit: iounit.UnitName, Cross: "no_such_cross"},
		{Unit: iounit.UnitName, Events: []string{"io_cmd_crc", "no_such_event"}},
		// decay: 0 selects 1; anything else outside (0, 1] is refused, not
		// run as 1.
		{Unit: iounit.UnitName, Family: iounit.FamilyName, Decay: -0.2},
		{Unit: iounit.UnitName, Family: iounit.FamilyName, Decay: 1.5},
		// rounds: 0 selects 1; a negative count is refused, not run as 1.
		{Unit: iounit.UnitName, Family: iounit.FamilyName, Rounds: -3},
		// rounds above 1 and repeated events change nothing off-family,
		// so they are refused rather than dropped.
		{Unit: iounit.UnitName, Events: []string{"crc_004"}, Rounds: 2},
		{Unit: iounit.UnitName, Events: []string{"crc_004", "crc_004"}},
		// min_sim and decay are refused where they change nothing, and
		// min_sim outside [0, 1], rather than ignored or read as 0.5.
		{Unit: iounit.UnitName, Family: iounit.FamilyName, MinSim: 0.9},
		{Unit: iounit.UnitName, Events: []string{"crc_004"}, MinSim: -3},
		{Unit: iounit.UnitName, Events: []string{"crc_004"}, MinSim: 7},
		{Unit: iounit.UnitName, Events: []string{"crc_004"}, Decay: 0.3},
		// budgets: 0 selects the default; a negative one is refused, not
		// run as the default.
		{Unit: iounit.UnitName, Family: iounit.FamilyName, Config: SpecConfig{SampleSims: -7}},
		{Unit: iounit.UnitName, Family: iounit.FamilyName, Config: SpecConfig{CorpusSims: -1}},
		{Unit: iounit.UnitName, Family: iounit.FamilyName, Config: SpecConfig{BestSims: -2000}},
	}
	for i, spec := range bad {
		if _, err := svc.Submit(spec); err == nil {
			t.Errorf("spec %d accepted, want rejection", i)
		}
	}
	if got := len(svc.List()); got != 0 {
		t.Fatalf("rejected submissions left %d campaigns behind", got)
	}
	// A refusal burns no campaign id, and the next submission runs as if
	// nothing happened.
	id, err := svc.Submit(tinySpec())
	if err != nil || id != "c000001" {
		t.Fatalf("Submit after the refusals = %q, %v; want c000001", id, err)
	}
	if st := waitDone(t, svc, id); st.State != StateDone {
		t.Fatalf("state = %q (error %q), want done", st.State, st.Error)
	}
}

// TestUnitBuiltOncePerName: admission and every campaign share one
// unit per name, however many goroutines ask at once; a name that
// builds no unit is an error and is not kept.
func TestUnitBuiltOncePerName(t *testing.T) {
	svc := newService(t, Config{})
	units := make([]duv.DUV, 8)
	var wg sync.WaitGroup
	for i := range units {
		wg.Add(1)
		go func() {
			defer wg.Done()
			u, err := svc.unit(iounit.UnitName)
			if err != nil {
				t.Error(err)
			}
			units[i] = u
		}()
	}
	wg.Wait()
	for _, u := range units[1:] {
		if u != units[0] {
			t.Fatal("two callers got two different units of one name")
		}
	}
	if _, err := svc.unit("no_such_unit"); err == nil {
		t.Fatal("unknown unit accepted")
	}
	if got := len(svc.units); got != 1 {
		t.Fatalf("service keeps %d units, want 1", got)
	}
}

// gatedService builds a service whose campaigns block at flow-armed
// time until the returned release func is called — a deterministic way
// to hold a campaign in the running state.
func gatedService(t *testing.T, cfg Config) (*Service, func()) {
	t.Helper()
	gate := make(chan struct{})
	var once sync.Once
	cfg.flowArmed = func(string, *core.Flow) { <-gate }
	svc := newService(t, cfg)
	return svc, func() { once.Do(func() { close(gate) }) }
}

// TestQueueSaturation: with one slot running and a one-deep queue, the
// third submission is rejected with ErrQueueFull — and accepted
// campaigns still all complete once the gate opens.
func TestQueueSaturation(t *testing.T) {
	svc, release := gatedService(t, Config{MaxRunning: 1, MaxQueue: 1})
	defer release()

	first, err := svc.Submit(tinySpec())
	if err != nil {
		t.Fatal(err)
	}
	// Wait until the first campaign occupies the running slot, so the
	// second sits alone in the queue.
	deadline := time.Now().Add(10 * time.Second)
	for svc.Get(first).State != StateRunning {
		if time.Now().After(deadline) {
			t.Fatal("first campaign never started")
		}
		time.Sleep(5 * time.Millisecond)
	}
	second, err := svc.Submit(tinySpec())
	if err != nil {
		t.Fatal(err)
	}
	if _, err := svc.Submit(tinySpec()); !errors.Is(err, ErrQueueFull) {
		t.Fatalf("third submission err = %v, want ErrQueueFull", err)
	}

	release()
	for _, id := range []string{first, second} {
		if st := waitDone(t, svc, id); st.State != StateDone {
			t.Fatalf("campaign %s state = %q (error %q), want done", id, st.State, st.Error)
		}
	}
}

// TestCancelQueued and TestCancelRunning cover both halves of DELETE.
func TestCancelQueued(t *testing.T) {
	svc, release := gatedService(t, Config{MaxRunning: 1, MaxQueue: 4})
	defer release()
	first, err := svc.Submit(tinySpec())
	if err != nil {
		t.Fatal(err)
	}
	second, err := svc.Submit(tinySpec())
	if err != nil {
		t.Fatal(err)
	}
	if st := svc.Cancel(second); st.State != StateCanceled {
		t.Fatalf("canceled queued campaign state = %q", st.State)
	}
	release()
	if st := waitDone(t, svc, first); st.State != StateDone {
		t.Fatalf("first campaign state = %q", st.State)
	}
	if st := svc.Get(second); st.State != StateCanceled {
		t.Fatalf("second campaign state = %q after run, want canceled", st.State)
	}
}

// TestCancelAfterCloseWritesNothing: once Close began, the data root
// is the next daemon's, so Cancel leaves a queued campaign queued, on
// disk too.
func TestCancelAfterCloseWritesNothing(t *testing.T) {
	dataDir := t.TempDir()
	svc := newService(t, Config{DataDir: dataDir, frozen: true})
	id, err := svc.Submit(tinySpec())
	if err != nil {
		t.Fatal(err)
	}
	svc.Close()
	if st := svc.Cancel(id); st.State != StateQueued {
		t.Fatalf("Cancel after Close = %q, want queued", st.State)
	}
	if st, err := loadState(filepath.Join(dataDir, id)); err != nil || st.State != StateQueued {
		t.Fatalf("on-disk state after Cancel after Close = %+v, %v; want queued", st, err)
	}
}

func TestCancelRunning(t *testing.T) {
	svc, release := gatedService(t, Config{})
	defer release()
	id, err := svc.Submit(tinySpec())
	if err != nil {
		t.Fatal(err)
	}
	deadline := time.Now().Add(10 * time.Second)
	for svc.Get(id).State != StateRunning {
		if time.Now().After(deadline) {
			t.Fatal("campaign never started")
		}
		time.Sleep(5 * time.Millisecond)
	}
	// Cancel while the flow is gated: the run enters with an already
	// canceled context and stops at its first checkpoint.
	svc.Cancel(id)
	release()
	if st := waitDone(t, svc, id); st.State != StateCanceled {
		t.Fatalf("state = %q, want canceled", st.State)
	}
}

// TestRestartResume is the service's headline property: a daemon
// stopped mid-campaign (drain, not failure) leaves the campaign
// "running" on disk; a new service over the same data directory
// re-enqueues it, the flow journal replays the completed prefix, and
// the finished reports are bit-identical to an uninterrupted run —
// down to the persisted report.json bytes.
func TestRestartResume(t *testing.T) {
	// Uninterrupted baseline.
	baseSvc := newService(t, Config{})
	baseID, err := baseSvc.Submit(tinySpec())
	if err != nil {
		t.Fatal(err)
	}
	if st := waitDone(t, baseSvc, baseID); st.State != StateDone {
		t.Fatalf("baseline state = %q (error %q)", st.State, st.Error)
	}
	baseBytes, err := os.ReadFile(filepath.Join(baseSvc.cfg.DataDir, baseID, "report.json"))
	if err != nil {
		t.Fatal(err)
	}
	baseSvc.Close()

	// Interrupted run: the campaign's flow is gated until the service
	// starts draining, so the drain deterministically catches it in the
	// running state (every mid-run interruption point is swept by the
	// kill rows of internal/core's TestInvarianceMatrix; this test pins
	// the service mechanics).
	dataDir := t.TempDir()
	var svcp *Service
	svc, err := New(Config{DataDir: dataDir, flowArmed: func(string, *core.Flow) {
		<-svcp.baseCtx.Done()
	}})
	if err != nil {
		t.Fatal(err)
	}
	svcp = svc
	id, err := svc.Submit(tinySpec())
	if err != nil {
		t.Fatal(err)
	}
	deadline := time.Now().Add(10 * time.Second)
	for svc.Get(id).State != StateRunning {
		if time.Now().After(deadline) {
			t.Fatal("campaign never started")
		}
		time.Sleep(2 * time.Millisecond)
	}
	svc.Close() // drain: the campaign checkpoints and stays "running" on disk

	st, err := loadState(filepath.Join(dataDir, id))
	if err != nil {
		t.Fatal(err)
	}
	if st.State != StateRunning {
		t.Fatalf("on-disk state after drain = %q, want running", st.State)
	}

	// Restart: the new service resumes the campaign automatically.
	restarted := newService(t, Config{DataDir: dataDir})
	if got := waitDone(t, restarted, id); got.State != StateDone {
		t.Fatalf("resumed state = %q (error %q), want done", got.State, got.Error)
	}
	resumedBytes, err := os.ReadFile(filepath.Join(dataDir, id, "report.json"))
	if err != nil {
		t.Fatal(err)
	}
	if string(resumedBytes) != string(baseBytes) {
		t.Fatal("resumed campaign's report.json differs from the uninterrupted baseline")
	}

	// The in-memory reports match too.
	baseReports, err := loadReports(filepath.Join(baseSvc.cfg.DataDir, baseID))
	if err != nil {
		t.Fatal(err)
	}
	if !reflect.DeepEqual(restarted.Get(id).Reports, baseReports) {
		t.Fatal("resumed reports differ from baseline reports")
	}
}

// counterSeries returns the counters of the family name in reg, by
// label set ("" for the unlabeled series).
func counterSeries(reg *obs.Registry, name string) map[string]uint64 {
	out := map[string]uint64{}
	for key, v := range reg.Snapshot().Counters {
		if family, labels, _ := strings.Cut(key, "{"); family == name {
			out[strings.TrimSuffix(labels, "}")] = v
		}
	}
	return out
}

// TestReportWriteFailureCounted: a campaign whose report.json cannot be
// written ends failed, and the failure is counted once, in the series of
// its engine and tenant, like any other.
func TestReportWriteFailureCounted(t *testing.T) {
	rec := obs.NewRecorder()
	dataDir := t.TempDir()
	svc := newService(t, Config{DataDir: dataDir, Rec: rec, flowArmed: func(id string, _ *core.Flow) {
		// A non-empty directory where the report goes: its final rename fails.
		if err := os.MkdirAll(filepath.Join(dataDir, id, "report.json", "x"), 0o755); err != nil {
			t.Error(err)
		}
	}})
	id, err := svc.Submit(tinySpec())
	if err != nil {
		t.Fatal(err)
	}
	if st := waitDone(t, svc, id); st.State != StateFailed {
		t.Fatalf("state = %q (error %q), want failed", st.State, st.Error)
	}
	want := map[string]uint64{obs.Labels("engine", tinySpec().engineName(), "tenant", tinySpec().tenant()): 1}
	if got := counterSeries(rec.Metrics, "service.failed"); !maps.Equal(got, want) {
		t.Fatalf("service.failed series = %v, want %v", got, want)
	}
}

// TestFailedCampaignReported: a campaign whose flow fails at run time —
// here a directory stands where its journal file goes, so the disk
// refuses the journal — ends "failed" with the error on record.
func TestFailedCampaignReported(t *testing.T) {
	dataDir := t.TempDir()
	queued := newService(t, Config{DataDir: dataDir, frozen: true})
	id, err := queued.Submit(tinySpec())
	if err != nil {
		t.Fatal(err)
	}
	queued.Close()
	if err := os.MkdirAll(filepath.Join(dataDir, id, "flow.journal", "x"), 0o755); err != nil {
		t.Fatal(err)
	}
	svc := newService(t, Config{DataDir: dataDir})
	st := waitDone(t, svc, id)
	if st.State != StateFailed || !strings.Contains(st.Error, "journal") {
		t.Fatalf("state = %q error = %q, want failed with the journal error", st.State, st.Error)
	}
}
