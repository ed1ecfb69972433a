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

	"repro/internal/duv/iounit"
	"repro/internal/journal"
	"repro/internal/obs"
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

	// An explicit resume of a missing journal must fail; New's
	// auto-detect treats it as a fresh start instead.
	fresh := NewFlow(iounit.New(), journalTestConfig())
	defer fresh.Close()
	if err := fresh.resumeJournal(filepath.Join(t.TempDir(), "missing.journal")); err == nil {
		t.Fatal("resume of a missing journal succeeded")
	}
}

// TestJournalWithoutHeaderStartsFresh: a writer killed between
// journal.Create (magic written and synced) and its header append — or
// during the header append — leaves a journal with no complete record.
// Nothing was checkpointed, so the next flow on that path must start
// it fresh, not refuse it as another flow's journal: a campaign adopted
// from a replica killed in that window would otherwise fail for good.
func TestJournalWithoutHeaderStartsFresh(t *testing.T) {
	for name, tail := range map[string]string{"magic only": "", "torn header": "\x00\x00\x01"} {
		path := filepath.Join(t.TempDir(), "run.journal")
		if err := os.WriteFile(path, []byte(journal.Magic+tail), 0o644); err != nil {
			t.Fatal(err)
		}
		flow := newJournaled(t, journalTestConfig(), path)
		flow.Close()
		// The header is on disk now: the same flow resumes, another does not.
		newJournaled(t, journalTestConfig(), path).Close()
		other := journalTestConfig()
		other.Seed = 22
		other.Journal = path
		if f, err := New(iounit.New(), other); err == nil {
			f.Close()
			t.Fatalf("%s: the restarted journal has no header of its own flow", name)
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
