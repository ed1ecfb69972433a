package core

import (
	"bytes"
	"context"
	"encoding/json"
	"errors"
	"fmt"
	"os"
	"path/filepath"
	"strings"
	"testing"

	"repro/internal/duv"
	"repro/internal/duv/iounit"
	"repro/internal/journal"
	"repro/internal/obs"
	"repro/internal/opt"
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
		{"ranker", Config{Engine: "ranker"}, 0x9b12cda78149de9c},
		{"bayes with priors", Config{
			Engine:   "bayes",
			Prior:    []opt.PriorPoint{{X: []float64{12.5, 80}, Value: 0.25}},
			TACPrior: map[string]float64{"crc_fifo": 0.75},
		}, 0x510aacb7df40db6d},
	} {
		if got := cfgHash(tc.cfg); got != tc.want {
			t.Errorf("%s config: cfgHash = %#x, want %#x", tc.name, got, tc.want)
		}
	}
}

// TestResumeRejectsMismatchedFlow: a journal resumes only into a flow
// with the identical unit, seed and result-relevant config, also when
// the run that wrote it was killed mid-campaign. A throughput-only knob
// does not block a resume: a run may move to a machine with a different
// worker count.
func TestResumeRejectsMismatchedFlow(t *testing.T) {
	for _, tc := range []struct {
		name    string
		write   func(*Config) // the config of the run that writes the journal
		kill    int           // > 0: that run dies at this append; 0: it writes only its header
		resume  func(*Config) // the config of the flow that opens the journal
		refused bool
	}{
		{"seed", nil, 0, func(c *Config) { c.Seed = 22 }, true},
		{"config", nil, 0, func(c *Config) { c.OptSims = 26 }, true},
		{"seed_after_kill", nil, 3, func(c *Config) { c.Seed = 99 }, true},
		{"engine", func(c *Config) { c.Engine = "ranker" }, 0, func(c *Config) { c.Engine = "bayes" }, true},
		{"workers", nil, 0, func(c *Config) { c.Workers = 7 }, false},
	} {
		t.Run(tc.name, func(t *testing.T) {
			path := filepath.Join(t.TempDir(), "run.journal")
			s := invScenario{unit: func() duv.DUV { return iounit.New() }, cfg: journalTestConfig(),
				run: func(f *Flow) ([]*Report, error) {
					return f.Run(context.Background(), Target{Family: iounit.FamilyName})
				}}
			if tc.write != nil {
				tc.write(&s.cfg)
			}
			if tc.kill > 0 {
				invCrash(t, s, tc.kill, 0, invJournal(path))
			} else {
				s.open(t, invJournal(path)).Close()
			}
			cfg := journalTestConfig()
			tc.resume(&cfg)
			cfg.Journal = path
			flow, err := New(iounit.New(), cfg)
			if err == nil {
				flow.Close()
			}
			if refused := err != nil; refused != tc.refused {
				t.Fatalf("refused = %v (%v), want %v", refused, err, tc.refused)
			}
		})
	}
}

// TestResumeRefusesAnotherRanking: a journal whose run_start names
// other templates than this run's coarse search chooses (one written by
// a build that ranks differently, under the same config hash) is refused
// at run_start, naming both choices, instead of handing the old box's
// sample counts to a new box.
func TestResumeRefusesAnotherRanking(t *testing.T) {
	path := filepath.Join(t.TempDir(), "run.journal")
	cfg := journalTestConfig()
	cfg.Journal = path
	flow, err := New(iounit.New(), cfg)
	if err != nil {
		t.Fatal(err)
	}
	reports, err := flow.Run(context.Background(), Target{Family: iounit.FamilyName})
	flow.Close()
	if err != nil {
		t.Fatal(err)
	}
	// The other ranking: the same templates, best last.
	var ours, theirs []string
	for _, ts := range reports[0].ChosenTemplates {
		ours = append(ours, ts.Name)
		theirs = append([]string{ts.Name}, theirs...)
	}
	data, err := os.ReadFile(path)
	if err != nil {
		t.Fatal(err)
	}
	recs, _ := journal.DecodeAll(data[len(journal.Magic):])
	w, err := journal.Create(path, nil)
	if err != nil {
		t.Fatal(err)
	}
	for _, r := range recs {
		if r.Type == "run_start" {
			var rec map[string]any
			if err := json.Unmarshal(r.Data, &rec); err != nil {
				t.Fatal(err)
			}
			rec["chosen"] = theirs
			if r.Data, err = json.Marshal(rec); err != nil {
				t.Fatal(err)
			}
		}
		if err := w.Append(r.Type, r.Data); err != nil {
			t.Fatal(err)
		}
	}
	w.Close()

	flow, err = New(iounit.New(), cfg)
	if err != nil {
		t.Fatal(err)
	}
	defer flow.Close()
	_, err = flow.Run(context.Background(), Target{Family: iounit.FamilyName})
	if want := fmt.Sprintf("run_start record chose templates %v, this run's coarse search chooses %v", theirs, ours); err == nil || !strings.Contains(err.Error(), want) {
		t.Fatalf("resume under another ranking: %v, want an error containing %q", err, want)
	}
	if n := flow.Env().Simulations(); n != reports[0].Phases[0].Counts.Sims() {
		t.Fatalf("the refused resume stands at %d simulations, want the corpus's %d", n, reports[0].Phases[0].Counts.Sims())
	}
}

// TestJournalWithoutHeaderStartsFresh: a writer killed between
// journal.Create (magic written and synced) and its header append — or
// during the header append — leaves a journal with no complete record.
// Nothing was checkpointed, so the next run on that path must start it
// fresh, not refuse it as another run's journal: a campaign adopted from
// a replica killed in that window would otherwise fail for good.
func TestJournalWithoutHeaderStartsFresh(t *testing.T) {
	open := func(path string, seed uint64) error {
		cfg := journalTestConfig()
		cfg.Seed, cfg.Journal = seed, path
		f, err := New(iounit.New(), cfg)
		if err == nil {
			f.Close()
		}
		return err
	}
	for name, tail := range map[string]string{"magic only": "", "torn header": "\x00\x00\x01"} {
		path := filepath.Join(t.TempDir(), "run.journal")
		if err := os.WriteFile(path, []byte(journal.Magic+tail), 0o644); err != nil {
			t.Fatal(err)
		}
		if err := open(path, 21); err != nil {
			t.Fatalf("%s: %v", name, err)
		}
		// The header is on disk now: the same run resumes, another does not.
		if err := open(path, 21); err != nil {
			t.Fatalf("%s: reopen: %v", name, err)
		}
		if open(path, 22) == nil {
			t.Fatalf("%s: the restarted journal has no header of its own run", name)
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
// round-number leak: a campaign that dies inside the harvest phase has
// completed no round, and resumed in a new flow from its journal it must
// harvest round 1, not round 2.
func TestRoundSurvivesFailedHarvest(t *testing.T) {
	ctx, cancel := context.WithCancel(context.Background())
	sink := &cancelOnPhase{needle: []byte(`"phase":"harvest"`), cancel: cancel}
	rec := obs.NewRecorder()
	rec.Progress = obs.NewProgress(sink)
	cfg := journalTestConfig()
	cfg.Obs = rec
	cfg.Journal = filepath.Join(t.TempDir(), "flow.journal")

	flow := newFlow(t, iounit.New(), cfg)
	reports, err := flow.Run(ctx, Target{Family: iounit.FamilyName, Decay: 0.4})
	flow.Close()
	if !errors.Is(err, context.Canceled) {
		t.Fatalf("err = %v, want context.Canceled", err)
	}
	if !errors.Is(err, ErrInterrupted) {
		t.Fatalf("err = %v, want ErrInterrupted", err)
	}
	if len(reports) != 0 {
		t.Fatalf("failed harvest completed %d rounds, want 0", len(reports))
	}
	if got := rec.Counter("flow.cancellations").Value(); got != 1 {
		t.Fatalf("flow.cancellations = %d, want 1", got)
	}

	// A new flow on the journal completes the campaign; the harvested
	// template must be round 1 — no skipped number.
	rec.Progress = nil
	resumed := newFlow(t, iounit.New(), cfg)
	defer resumed.Close()
	report, err := runOne(resumed, Target{Family: iounit.FamilyName, Decay: 0.4})
	if err != nil {
		t.Fatal(err)
	}
	if !strings.HasSuffix(report.BestTemplate.Name, "_cdg_best_1") {
		t.Fatalf("harvested template %q, want round-1 name", report.BestTemplate.Name)
	}
}
