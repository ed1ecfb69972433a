package core

import (
	"bytes"
	"context"
	"errors"
	"os"
	"path/filepath"
	"reflect"
	"strings"
	"testing"

	"repro/internal/duv"
	"repro/internal/duv/iounit"
	"repro/internal/duv/l3cache"
	"repro/internal/journal"
	"repro/internal/obs"
	"repro/internal/sim"
)

// journalTestConfig is the small iounit campaign the journal tests run:
// big enough to exercise every phase, small enough to run many times.
func journalTestConfig() Config {
	return Config{
		Seed:                  21,
		Workers:               3,
		CorpusSimsPerTemplate: 120,
		TopTemplates:          2,
		Subranges:             3,
		SampleTemplates:       12,
		SampleSims:            20,
		OptIterations:         5,
		OptDirections:         5,
		OptSims:               25,
		BestSims:              250,
	}
}

// TestConfigHashIsStable pins the journal header's config hash: a
// journal written by an earlier build resumes only if the same config
// still hashes to the same value, whatever fields Config gains or loses.
func TestConfigHashIsStable(t *testing.T) {
	for _, tc := range []struct {
		name string
		cfg  Config
		want uint64
	}{
		{"zero", Config{}, 0x1f5063c8593f3267},
		{"default", Config{}.withDefaults(), 0x288ac8e793ebc383},
		{"fully budgeted", Config{
			Seed: 7, CorpusSimsPerTemplate: 300, TopTemplates: 3, Subranges: 5,
			SampleTemplates: 12, SampleSims: 40,
			OptIterations: 6, OptDirections: 8, OptSims: 30, BestSims: 500,
		}, 0x313347dce21d29b8},
	} {
		if got := cfgHash(tc.cfg); got != tc.want {
			t.Errorf("%s config: cfgHash = %#x, want %#x", tc.name, got, tc.want)
		}
	}
}

func runRefined(t *testing.T, flow *Flow, rounds int) []*Report {
	t.Helper()
	reports, err := flow.Run(context.Background(), Target{Family: iounit.FamilyName, Decay: 0.4, Rounds: rounds})
	if err != nil {
		t.Fatal(err)
	}
	return reports
}

// newJournaled builds a flow journaled at path via the declarative
// construction API: a missing file starts fresh, an existing one is
// recovered and replayed.
func newJournaled(t *testing.T, cfg Config, path string) *Flow {
	t.Helper()
	cfg.Journal = path
	flow, err := New(iounit.New(), cfg)
	if err != nil {
		t.Fatal(err)
	}
	return flow
}

// TestJournaledRunMatchesPlainRun: journaling on (Config.Journal) must
// not perturb a run — every Report is bit-identical to the unjournaled
// flow's — and a full replay of the finished journal must reproduce the
// same Reports without simulating anything.
func TestJournaledRunMatchesPlainRun(t *testing.T) {
	const rounds = 2
	plain := NewFlow(iounit.New(), journalTestConfig())
	defer plain.Close()
	want := runRefined(t, plain, rounds)

	path := filepath.Join(t.TempDir(), "run.journal")
	live := newJournaled(t, journalTestConfig(), path)
	got := runRefined(t, live, rounds)
	live.Close()
	if !reflect.DeepEqual(got, want) {
		t.Fatal("journaled run diverged from plain run")
	}

	// New sees the finished journal on disk and arms a full replay.
	replay := newJournaled(t, journalTestConfig(), path)
	defer replay.Close()
	replayed := runRefined(t, replay, rounds)
	if !reflect.DeepEqual(replayed, want) {
		t.Fatal("replayed run diverged from plain run")
	}
	if sims := replay.Env().Simulations(); sims != plain.Env().Simulations() {
		t.Fatalf("replay's simulation counter = %d, want the original %d", sims, plain.Env().Simulations())
	}
	if replay.Round() != rounds {
		t.Fatalf("replayed flow round = %d, want %d", replay.Round(), rounds)
	}
}

// TestResumeRejectsMismatchedFlow: a journal must only resume into a
// flow with the identical unit, seed, and result-relevant config.
func TestResumeRejectsMismatchedFlow(t *testing.T) {
	path := filepath.Join(t.TempDir(), "run.journal")
	flow := newJournaled(t, journalTestConfig(), path)
	flow.Close()

	seedCfg := journalTestConfig()
	seedCfg.Seed = 22
	seedCfg.Journal = path
	if other, err := New(iounit.New(), seedCfg); err == nil {
		other.Close()
		t.Fatal("resume with a different seed succeeded")
	}

	simsCfg := journalTestConfig()
	simsCfg.OptSims = 26
	simsCfg.Journal = path
	if tweaked, err := New(iounit.New(), simsCfg); err == nil {
		tweaked.Close()
		t.Fatal("resume with a different config succeeded")
	}

	// Throughput-only knobs must NOT block a resume: a run may move to a
	// machine with a different worker count.
	workersCfg := journalTestConfig()
	workersCfg.Workers = 7
	moved := newJournaled(t, workersCfg, path)
	moved.Close()
}

// TestJournalWithoutHeaderStartsFresh: a writer killed between
// journal.Create (magic written and synced) and its header append — or
// during the header append — leaves a journal with no complete record.
// Nothing was checkpointed, so the next run on that path must start it
// fresh, not refuse it as another run's journal: a campaign adopted from
// a replica killed in that window would otherwise fail for good, and so
// would "tacquery -resume" of a corpus build killed there. Both headers
// go through the one opener, journal.Open.
func TestJournalWithoutHeaderStartsFresh(t *testing.T) {
	for _, h := range []struct {
		header string
		open   func(path string, seed uint64) error
	}{
		{"flow_header", func(path string, seed uint64) error {
			cfg := journalTestConfig()
			cfg.Seed, cfg.Journal = seed, path
			f, err := New(iounit.New(), cfg)
			if err == nil {
				f.Close()
			}
			return err
		}},
		{"corpus_header", func(path string, seed uint64) error {
			env := sim.NewEnv(iounit.New(), seed, 1)
			defer env.Close()
			cur, err := env.OpenCorpusJournal(path, 10, nil)
			cur.Close()
			return err
		}},
	} {
		for name, tail := range map[string]string{"magic only": "", "torn header": "\x00\x00\x01"} {
			path := filepath.Join(t.TempDir(), "run.journal")
			if err := os.WriteFile(path, []byte(journal.Magic+tail), 0o644); err != nil {
				t.Fatal(err)
			}
			if err := h.open(path, 21); err != nil {
				t.Fatalf("%s, %s: %v", h.header, name, err)
			}
			// The header is on disk now: the same run resumes, another does not.
			if err := h.open(path, 21); err != nil {
				t.Fatalf("%s, %s: reopen: %v", h.header, name, err)
			}
			if h.open(path, 22) == nil {
				t.Fatalf("%s, %s: the restarted journal has no header of its own run", h.header, name)
			}
		}
	}
}

// cancelOnPhase is an obs progress sink that cancels a context the
// moment a named phase starts — a deterministic way to interrupt the
// flow at an exact phase boundary.
type cancelOnPhase struct {
	needle []byte
	cancel context.CancelFunc
}

func (c *cancelOnPhase) Write(p []byte) (int, error) {
	if bytes.Contains(p, c.needle) {
		c.cancel()
	}
	return len(p), nil
}

// TestRoundSurvivesFailedHarvest is the regression test for the
// round-counter leak: a run that dies inside the harvest phase must not
// consume a round number, and the next successful run must harvest
// round 1, not round 2.
func TestRoundSurvivesFailedHarvest(t *testing.T) {
	ctx, cancel := context.WithCancel(context.Background())
	sink := &cancelOnPhase{needle: []byte(`"phase":"harvest"`), cancel: cancel}
	rec := obs.NewRecorder()
	rec.Progress = obs.NewProgress(sink)
	cfg := journalTestConfig()
	cfg.Obs = rec

	flow := NewFlow(iounit.New(), cfg)
	defer flow.Close()
	_, err := flow.Run(ctx, Target{Family: iounit.FamilyName, Decay: 0.4})
	if !errors.Is(err, context.Canceled) {
		t.Fatalf("err = %v, want context.Canceled", err)
	}
	if !errors.Is(err, ErrInterrupted) {
		t.Fatalf("err = %v, want ErrInterrupted", err)
	}
	if flow.Round() != 0 {
		t.Fatalf("failed harvest consumed round: Round() = %d, want 0", flow.Round())
	}
	if got := rec.Counter("flow.cancellations").Value(); got != 1 {
		t.Fatalf("flow.cancellations = %d, want 1", got)
	}

	// A fresh context completes the run; the harvested template must be
	// round 1 — no skipped number.
	rec.Progress = nil
	report, err := runOne(flow, Target{Family: iounit.FamilyName, Decay: 0.4})
	if err != nil {
		t.Fatal(err)
	}
	if !strings.HasSuffix(report.BestTemplate.Name, "_cdg_best_1") {
		t.Fatalf("harvested template %q, want round-1 name", report.BestTemplate.Name)
	}
	if flow.Round() != 1 {
		t.Fatalf("Round() = %d, want 1", flow.Round())
	}
}

// TestParentJournalsReplay: journals written by earlier code
// (testdata/parent_*, committed untouched) still replay — with zero new
// simulations and nothing appended — to the reports their runs produced.
// The iounit and per-event journals predate the flow's batches going
// through one replay-or-run loop; their configs are
// TestDefaultEngineReportGolden's and their reports its goldens. The
// bayes journal predates the engines sharing one frame; a row without a
// golden compares against an unjournaled run of the same config.
func TestParentJournalsReplay(t *testing.T) {
	ctx := context.Background()
	for _, tc := range []struct {
		journal, golden string
		unit            duv.DUV
		cfg             Config
		run             func(*Flow) ([]*Report, error)
	}{
		{"parent_family_iounit.journal", "engine_default_family.golden", iounit.New(), Config{
			Seed: 7, CorpusSimsPerTemplate: 120, TopTemplates: 2, Subranges: 2, SampleTemplates: 8, SampleSims: 12,
			OptIterations: 4, OptDirections: 4, OptSims: 15, BestSims: 100, Workers: 3,
		}, func(f *Flow) ([]*Report, error) {
			return f.Run(ctx, Target{Family: iounit.FamilyName, Decay: 0.4, Rounds: 2})
		}},
		{"parent_per_event_l3.journal", "engine_default_per_event_l3.golden", l3cache.New(), Config{
			Seed: 11, CorpusSimsPerTemplate: 150, TopTemplates: 2, Subranges: 2, SampleTemplates: 6, SampleSims: 10,
			OptIterations: 3, OptDirections: 5, OptSims: 12, BestSims: 80, Workers: 2,
		}, func(f *Flow) ([]*Report, error) { return f.RunPerEventShared(ctx, l3cache.FamilyName, 0.5) }},
		{"parent_bayes_l3.journal", "", l3cache.New(), Config{
			Seed: 11, CorpusSimsPerTemplate: 150, TopTemplates: 2, Subranges: 2, SampleTemplates: 6, SampleSims: 10,
			OptIterations: 6, OptDirections: 5, OptSims: 12, BestSims: 80, Workers: 2, Engine: "bayes",
		}, func(f *Flow) ([]*Report, error) {
			return f.Run(ctx, Target{Family: l3cache.FamilyName, Decay: 0.5})
		}},
	} {
		t.Run(tc.journal, func(t *testing.T) {
			want, err := os.ReadFile(filepath.Join("testdata", tc.journal))
			if err != nil {
				t.Fatal(err)
			}
			path := filepath.Join(t.TempDir(), tc.journal)
			if err := os.WriteFile(path, want, 0o644); err != nil {
				t.Fatal(err)
			}
			rec := obs.NewRecorder()
			tc.cfg.Journal, tc.cfg.Obs = path, rec
			flow, err := New(tc.unit, tc.cfg)
			if err != nil {
				t.Fatal(err)
			}
			reports, err := tc.run(flow)
			flow.Close()
			if err != nil {
				t.Fatal(err)
			}
			if tc.golden != "" {
				checkReportGolden(t, tc.golden, reports)
			} else {
				plainCfg := tc.cfg
				plainCfg.Journal, plainCfg.Obs = "", nil
				plain := NewFlow(tc.unit, plainCfg)
				plainReports, err := tc.run(plain)
				plain.Close()
				if err != nil {
					t.Fatal(err)
				}
				if len(reports) != len(plainReports) {
					t.Fatalf("replay produced %d reports, the unjournaled run %d", len(reports), len(plainReports))
				}
				for i := range reports {
					if !bytes.Equal(canonicalReport(t, reports[i]), canonicalReport(t, plainReports[i])) {
						t.Fatalf("replayed report %d differs from the unjournaled run's", i)
					}
				}
			}
			if n := rec.Counter("sim.instances_completed").Value(); n != 0 {
				t.Errorf("replay simulated %d instances, want 0", n)
			}
			if got, _ := os.ReadFile(path); !bytes.Equal(got, want) {
				t.Errorf("replay changed the journal (%d bytes, was %d)", len(got), len(want))
			}
		})
	}
}
