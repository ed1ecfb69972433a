package core

import (
	"bytes"
	"context"
	"errors"
	"fmt"
	"os"
	"path/filepath"
	"reflect"
	"runtime"
	"testing"
	"time"

	"repro/internal/duv"
	"repro/internal/duv/iounit"
	"repro/internal/duv/l3cache"
	"repro/internal/duv/noc"
	"repro/internal/farm"
	"repro/internal/journal"
	"repro/internal/obs"
	"repro/internal/opt"
	"repro/internal/sim"
)

// TestInvarianceMatrix is the one check of the flow's invariant: a
// fixed seed gives the same reports wherever and however the flow runs.
// Every scenario below runs once as its baseline, and then once per
// axis row that applies to it (subtests <scenario>/<axis>). The one rule
// is that every run's []*Report is reflect.DeepEqual to the baseline's,
// every field included. A scenario with a golden must also reproduce it
// byte for byte under canonicalReport (-update-engine-golden rewrites
// the goldens, and is the only way to). A new axis is one more row.
//
// Some bit-identity tests stay outside the matrix:
//   - internal/service's TestMultiReplicaAdoption, TestRestartResume,
//     TestCorpusCacheBitIdentity and TestParentDataRootAdopted: they
//     drive the service's unexported flowArmed and frozen seams, and a
//     core test cannot import the service.
//   - internal/farm's TestFaultMatrix, TestByzantineFleetAcceptance and
//     TestFarmBitIdenticalAcrossTopologies: they compare chunk
//     aggregates, not reports.
func TestInvarianceMatrix(t *testing.T) {
	before := runtime.NumGoroutine()
	// Every flow and fleet the rows built is closed; once the scenarios
	// are done their goroutines must be gone. Allow the runtime a moment
	// to retire exiting ones.
	t.Cleanup(func() {
		deadline := time.Now().Add(5 * time.Second)
		for n := runtime.NumGoroutine(); n > before+2; n = runtime.NumGoroutine() {
			if time.Now().After(deadline) {
				t.Errorf("goroutine leak: %d before the matrix, %d after", before, n)
				return
			}
			time.Sleep(50 * time.Millisecond)
		}
	})
	for _, s := range invScenarios() {
		t.Run(s.name, func(t *testing.T) {
			t.Parallel()
			want := s.play(t, nil)
			if s.rounds != 0 && len(want.reports) != s.rounds {
				t.Fatalf("the campaign ran %d rounds, want %d", len(want.reports), s.rounds)
			}
			if s.golden != "" {
				t.Run("golden", func(t *testing.T) { checkReportGolden(t, s.golden, want.reports) })
			}
			for _, a := range invAxes() {
				if a.applies == nil || a.applies(s) {
					t.Run(a.name, func(t *testing.T) { a.check(t, s, want) })
				}
			}
		})
	}
}

// invScenario is one campaign the matrix runs on every axis.
type invScenario struct {
	name string
	unit func() duv.DUV
	cfg  Config
	run  func(*Flow) ([]*Report, error)
	// golden is the testdata file the baseline must match byte for byte.
	golden string
	// parent is a testdata journal an earlier build wrote for this
	// scenario; it must replay to the baseline without simulating.
	parent string
	// rounds, when set, is the number of reports the baseline must have.
	rounds int
	// tiny marks a campaign cheap enough for the costly rows: a kill at
	// every journal append, and a rerun under every engine.
	tiny bool
}

// invScenarios are the four default-engine goldens, the two tiny
// campaigns the kill rows sweep, and the bayes campaign whose journal
// predates the engines sharing one frame. The tiny family campaign runs
// two rounds, so the kill rows also resume after a finished round's
// harvest and run_done into the next round's work; the tiny per-event
// campaign targets one mined event, so they also resume a run whose
// approximated target comes from hit-profile correlation.
func invScenarios() []invScenario {
	ctx := context.Background()
	run := func(target Target) func(*Flow) ([]*Report, error) {
		return func(f *Flow) ([]*Report, error) { return f.Run(ctx, target) }
	}
	family := Config{
		Seed: 7, Workers: 3, CorpusSimsPerTemplate: 120, TopTemplates: 2, Subranges: 2,
		SampleTemplates: 8, SampleSims: 12, OptIterations: 4, OptDirections: 4, OptSims: 15, BestSims: 100,
	}
	l3 := Config{
		Seed: 11, Workers: 2, CorpusSimsPerTemplate: 150, TopTemplates: 2, Subranges: 2,
		SampleTemplates: 6, SampleSims: 10, OptIterations: 3, OptDirections: 5, OptSims: 12, BestSims: 80,
	}
	// tiny is the campaign internal/service's tinySpec maps to; each kill
	// row pays for it about twice per journal record.
	tiny := Config{
		Seed: 21, Workers: 3, CorpusSimsPerTemplate: 40, TopTemplates: 2, Subranges: 2,
		SampleTemplates: 6, SampleSims: 8, OptIterations: 3, OptDirections: 3, OptSims: 10, BestSims: 60,
	}
	bayes := l3
	bayes.OptIterations, bayes.Engine = 6, "bayes"
	ioUnit := func() duv.DUV { return iounit.New() }
	l3Unit := func() duv.DUV { return l3cache.New() }
	return []invScenario{
		{name: "family_refined", unit: ioUnit, cfg: family,
			run:    run(Target{Family: iounit.FamilyName, Decay: 0.4, Rounds: 2}),
			golden: "engine_default_family.golden", parent: "parent_family_iounit.journal"},
		{name: "family_l3", unit: l3Unit, cfg: l3,
			run: run(Target{Family: l3cache.FamilyName, Decay: 0.5}), golden: "engine_default_l3.golden"},
		{name: "cross_noc", unit: func() duv.DUV { return noc.New() }, cfg: l3,
			run: run(Target{Cross: noc.CrossName}), golden: "engine_default_cross_noc.golden"},
		{name: "events_l3", unit: l3Unit, cfg: l3,
			run: run(Target{Events: []string{"byp_reqs03"}}), golden: "engine_default_events_l3.golden"},
		{name: "tiny_family_iounit", unit: ioUnit, cfg: tiny,
			run: run(Target{Family: iounit.FamilyName, Decay: 0.4, Rounds: 2}), rounds: 2, tiny: true},
		{name: "tiny_per_event_iounit", unit: ioUnit, cfg: tiny,
			run: run(Target{Events: []string{"crc_032"}}), rounds: 1, tiny: true},
		{name: "parent_bayes_l3", unit: l3Unit, cfg: bayes,
			run: run(Target{Family: l3cache.FamilyName, Decay: 0.5}), parent: "parent_bayes_l3.journal"},
	}
}

// invAxis is one way of running a scenario that must not change its
// reports. check fails the test unless every run it makes matches want.
type invAxis struct {
	name    string
	applies func(invScenario) bool // nil: every scenario
	check   func(t *testing.T, s invScenario, want invOutcome)
}

func invAxes() []invAxis {
	axes := []invAxis{
		invWorkers(1), invWorkers(4), invWorkers(9),
		{name: "obs", check: func(t *testing.T, s invScenario, want invOutcome) {
			for _, workers := range []int{1, s.cfg.Workers} {
				rec := obs.NewRecorder()
				got := s.play(t, func(c *Config) { c.Workers, c.Obs = workers, rec })
				invSame(t, fmt.Sprintf("workers %d with obs", workers), got, want)
				if rec.Counter("sim.instances_completed").Value() == 0 {
					t.Fatal("the recorder saw no simulation")
				}
			}
		}},
		{name: "journaled", check: func(t *testing.T, s invScenario, want invOutcome) {
			path := filepath.Join(t.TempDir(), "flow.journal")
			invSame(t, "journaled run", s.play(t, invJournal(path)), want)
			invCheckpointed(t, path, len(want.reports))
		}},
		{name: "replay", check: func(t *testing.T, s invScenario, want invOutcome) {
			path := filepath.Join(t.TempDir(), "flow.journal")
			s.play(t, invJournal(path))
			invReplay(t, s, path, want)
		}},
		{name: "parent_journal", applies: func(s invScenario) bool { return s.parent != "" },
			check: func(t *testing.T, s invScenario, want invOutcome) {
				data, err := os.ReadFile(filepath.Join("testdata", s.parent))
				if err != nil {
					t.Fatal(err)
				}
				path := filepath.Join(t.TempDir(), s.parent)
				if err := os.WriteFile(path, data, 0o644); err != nil {
					t.Fatal(err)
				}
				invReplay(t, s, path, want)
			}},
		invFleet("fleet_healthy", 0, farm.Faults{}, farm.Faults{}),
		invFleet("fleet_faulty", 0, farm.Faults{DropAfterFrames: 10, Delay: time.Millisecond},
			farm.Faults{DuplicateEvery: 2, FailDials: 2}),
		invFleet("fleet_byzantine", 1, farm.Faults{Corrupt: true}, farm.Faults{}),
		invKill("kill", nil),
		invKill("kill_warm_cache", sim.NewCorpusCache),
	}
	for _, name := range opt.EngineNames() {
		axes = append(axes, invEngine(name))
	}
	return axes
}

// invOutcome is one run of a scenario: its reports, and the simulation
// counter a replay of its journal must restore.
type invOutcome struct {
	reports []*Report
	sims    uint64
}

// open builds the scenario's flow with edit applied to its config.
func (s invScenario) open(t *testing.T, edit func(*Config)) *Flow {
	t.Helper()
	cfg := s.cfg
	if edit != nil {
		edit(&cfg)
	}
	flow, err := New(s.unit(), cfg)
	if err != nil {
		t.Fatal(err)
	}
	return flow
}

// play runs the scenario once to completion with edit applied.
func (s invScenario) play(t *testing.T, edit func(*Config)) invOutcome {
	t.Helper()
	flow := s.open(t, edit)
	reports, err := s.run(flow)
	flow.Close()
	if err != nil {
		t.Fatal(err)
	}
	return invOutcome{reports, flow.Env().Simulations()}
}

// invSame is the matrix's one rule.
func invSame(t *testing.T, what string, got, want invOutcome) {
	t.Helper()
	if reflect.DeepEqual(got.reports, want.reports) {
		return
	}
	if len(got.reports) != len(want.reports) {
		t.Fatalf("%s: %d reports, the baseline %d", what, len(got.reports), len(want.reports))
	}
	for i := range got.reports {
		if !reflect.DeepEqual(got.reports[i], want.reports[i]) {
			t.Fatalf("%s: report %d diverged from the baseline\n--- got ---\n%.1500s\n--- want ---\n%.1500s",
				what, i, canonicalReport(t, got.reports[i]), canonicalReport(t, want.reports[i]))
		}
	}
}

func isTiny(s invScenario) bool { return s.tiny }

func invWorkers(n int) invAxis {
	return invAxis{name: fmt.Sprintf("workers%d", n), check: func(t *testing.T, s invScenario, want invOutcome) {
		invSame(t, fmt.Sprintf("workers %d", n), s.play(t, func(c *Config) { c.Workers = n }), want)
	}}
}

func invJournal(path string) func(*Config) {
	return func(c *Config) { c.Journal = path }
}

// invReplay runs the scenario over the finished journal at path: it must
// reproduce want without simulating or appending anything, and leave the
// flow's simulation counter where the original run left it.
func invReplay(t *testing.T, s invScenario, path string, want invOutcome) {
	t.Helper()
	data, err := os.ReadFile(path)
	if err != nil {
		t.Fatal(err)
	}
	rec := obs.NewRecorder()
	got := s.play(t, func(c *Config) { c.Journal, c.Obs = path, rec })
	invSame(t, "replay", got, want)
	if n := rec.Counter("sim.instances_completed").Value(); n != 0 {
		t.Errorf("replay simulated %d instances, want 0", n)
	}
	if n := rec.Counter("flow.resumes").Value(); n != 1 {
		t.Errorf("flow.resumes = %d, want 1", n)
	}
	if got.sims != want.sims {
		t.Errorf("replay restored %d simulations, want %d", got.sims, want.sims)
	}
	if after, _ := os.ReadFile(path); !bytes.Equal(after, data) {
		t.Errorf("replay changed the journal (%d bytes, was %d)", len(after), len(data))
	}
}

// invCheckpointed asserts a finished journal holds, for each of its
// rounds, optimizer iterations followed by a harvest: what lets a
// resumed campaign skip the rounds it finished.
func invCheckpointed(t *testing.T, path string, rounds int) {
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
	if harvests != rounds {
		t.Fatalf("journal holds %d harvest records in %d, want one per round (%d)", harvests, len(recs), rounds)
	}
}

// invFleet runs the flow's chunks on an in-memory fleet of farm
// workers, one per Faults, each misbehaving as its Faults say, with the
// dispatcher auditing the given fraction of remote results.
func invFleet(name string, audit float64, faults ...farm.Faults) invAxis {
	return invAxis{name: name, check: func(t *testing.T, s invScenario, want invOutcome) {
		lb := farm.NewLoopback()
		addrs := make([]string, len(faults))
		for i, f := range faults {
			srv := farm.NewServer(farm.ServerOptions{Capacity: 2, DrainTimeout: 2 * time.Second})
			defer srv.Shutdown()
			addrs[i] = string(rune('a' + i))
			lb.Add(addrs[i], srv, f)
		}
		d := farm.New(addrs, farm.Options{Dial: lb.Dial, AuditFraction: audit})
		defer d.Close()
		if err := d.WaitReady(10 * time.Second); err != nil {
			t.Fatal(err)
		}
		invSame(t, name, s.play(t, func(c *Config) { c.Runner, c.RunnerLanes = d, d.Lanes() }), want)
	}}
}

// invKill kills the scenario at every journal append after the header,
// cleanly at the record boundary and with 7 bytes of the next frame torn
// onto disk, and resumes each killed journal in a fresh flow. With cache
// set, every flow of the row shares one corpus cache: the row's first
// run builds the corpus, and every later flow replays it from the cache.
func invKill(name string, cache func() *sim.CorpusCache) invAxis {
	return invAxis{name: name, applies: isTiny,
		check: func(t *testing.T, s invScenario, want invOutcome) {
			var c *sim.CorpusCache
			var rec *obs.Recorder
			if cache != nil {
				c, rec = cache(), &obs.Recorder{Metrics: obs.NewRegistry()}
			}
			with := func(path string) func(*Config) {
				return func(cfg *Config) { cfg.Journal, cfg.CorpusCache, cfg.Obs = path, c, rec }
			}
			dir := t.TempDir()
			full := filepath.Join(dir, "full.journal")
			invSame(t, "journaled run", s.play(t, with(full)), want)
			recs, w, err := journal.Recover(full, nil, nil)
			if err != nil {
				t.Fatal(err)
			}
			w.Close()
			trials := 0
			for kill := 1; kill < len(recs); kill++ {
				for _, tear := range []int{0, 7} {
					path := filepath.Join(dir, fmt.Sprintf("kill%03d_tear%d.journal", kill, tear))
					invCrash(t, s, kill, tear, with(path))
					invSame(t, fmt.Sprintf("resume after kill=%d tear=%d", kill, tear), s.play(t, with(path)), want)
					trials++
				}
			}
			if trials < 20 {
				t.Fatalf("sweep ran only %d trials; the campaign journals too few records to be a meaningful test", trials)
			}
			if rec != nil {
				misses, hits := rec.Counter("sim.corpus_cache.misses").Value(), rec.Counter("sim.corpus_cache.hits").Value()
				if misses != 1 || hits < uint64(trials) {
					t.Fatalf("corpus cache: %d misses and %d hits over %d trials, want 1 miss and at least one hit per trial",
						misses, hits, trials)
				}
			}
		}}
}

// invCrash runs the scenario journaled as edit says and kills it at
// append kill (the flow header is append 0) with tear bytes of the
// doomed frame reaching the file: the state a SIGKILL between, or
// inside, the write and its fsync leaves behind.
func invCrash(t *testing.T, s invScenario, kill, tear int, edit func(*Config)) {
	t.Helper()
	victim := s.open(t, edit)
	victim.Journal().Writer().FailAppends(kill, tear)
	_, err := s.run(victim)
	victim.Close()
	if !errors.Is(err, journal.ErrInjected) {
		t.Fatalf("kill=%d tear=%d: the run did not die at the injected append: %v", kill, tear, err)
	}
}

// invEngine runs the scenario under a named engine: at 9 workers,
// journaled, and as a replay of that journal, each against the
// engine's own unjournaled run. For the scenario's own engine that run
// is the baseline itself, so naming the engine changes nothing.
func invEngine(name string) invAxis {
	return invAxis{name: "engine_" + name, applies: isTiny, check: func(t *testing.T, s invScenario, want invOutcome) {
		own := s.cfg.engineName()
		s.cfg.Engine = name
		if name != own {
			want = s.play(t, nil)
		}
		path := filepath.Join(t.TempDir(), "flow.journal")
		invSame(t, "journaled at 9 workers", s.play(t, func(c *Config) { c.Workers, c.Journal = 9, path }), want)
		invReplay(t, s, path, want)
	}}
}
