package sim

import (
	"bytes"
	"context"
	"errors"
	"os"
	"path/filepath"
	"reflect"
	"sync"
	"testing"

	"repro/internal/coverage"
	"repro/internal/duv/iounit"
	"repro/internal/generator"
	"repro/internal/journal"
	"repro/internal/obs"
)

// blockDUV wraps the toy unit so the first Simulate call parks on a gate
// — a deterministic way to have one chunk in flight while the rest of a
// job sits queued.
type blockDUV struct {
	*toyDUV
	gate    chan struct{} // Simulate blocks until this closes
	started chan struct{} // closed when the first Simulate begins
	once    sync.Once
}

func newBlockDUV() *blockDUV {
	return &blockDUV{
		toyDUV:  newToy(),
		gate:    make(chan struct{}),
		started: make(chan struct{}),
	}
}

func (d *blockDUV) Simulate(g *generator.Generator) coverage.Vector {
	d.once.Do(func() { close(d.started) })
	<-d.gate
	return d.toyDUV.Simulate(g)
}

// TestCancelAbortsQueuedChunks parks a single worker inside a job's
// first chunk, cancels, and releases it: the in-flight chunk drains
// normally, the queued chunk aborts without simulating, and Wait still
// returns — no goroutine leak, no deadlock.
func TestCancelAbortsQueuedChunks(t *testing.T) {
	unit := newBlockDUV()
	env := NewEnv(unit, 1, 1)
	defer env.Close()
	rec := obs.NewRecorder()
	env.SetRecorder(rec)
	ctx, cancel := context.WithCancel(context.Background())
	env.SetContext(ctx)

	// 32 instances on 1 worker shard into exactly two 16-instance chunks.
	job := submit(t, env, modeB(t), 32)
	<-unit.started // chunk 1 is in flight; chunk 2 is queued
	cancel()
	close(unit.gate)

	counts := job.Wait()
	if got := counts.Sims(); got != 16 {
		t.Fatalf("sims after cancel = %d, want 16 (in-flight chunk only)", got)
	}
	if got := rec.Counter("sim.chunks_aborted").Value(); got != 1 {
		t.Fatalf("sim.chunks_aborted = %d, want 1", got)
	}
	if _, err := env.Submit(modeB(t), 8); !errors.Is(err, context.Canceled) {
		t.Fatalf("Submit after cancel: err = %v, want context.Canceled", err)
	}
	if _, err := env.Run(modeB(t), 8); !errors.Is(err, context.Canceled) {
		t.Fatalf("Run after cancel: err = %v, want context.Canceled", err)
	}
}

// TestRunReportsCancelAfterWait cancels while a batch is in flight: Run
// must surface ctx.Err() rather than partial counts.
func TestRunReportsCancelAfterWait(t *testing.T) {
	unit := newBlockDUV()
	env := NewEnv(unit, 1, 2)
	defer env.Close()
	ctx, cancel := context.WithCancel(context.Background())
	env.SetContext(ctx)

	errc := make(chan error, 1)
	go func() {
		_, err := env.Run(modeB(t), 64)
		errc <- err
	}()
	<-unit.started
	cancel()
	close(unit.gate)
	if err := <-errc; !errors.Is(err, context.Canceled) {
		t.Fatalf("Run err = %v, want context.Canceled", err)
	}
}

// TestBuildCorpusJournaledMatchesPlain proves the journaled build is
// observationally identical to BuildCorpus: same repository, same
// environment counters (so later phases draw the same seeds).
func TestBuildCorpusJournaledMatchesPlain(t *testing.T) {
	const seed, sims = 21, 40
	plainEnv := NewEnv(iounit.New(), seed, 3)
	defer plainEnv.Close()
	want := buildCorpus(t, plainEnv, sims)

	env := NewEnv(iounit.New(), seed, 3)
	defer env.Close()
	path := filepath.Join(t.TempDir(), "corpus.journal")
	cur, err := env.OpenCorpusJournal(path, sims, nil)
	if err != nil {
		t.Fatal(err)
	}
	got, err := env.BuildCorpusJournaled(sims, cur)
	if err != nil {
		t.Fatal(err)
	}
	cur.Close()
	if !reflect.DeepEqual(got, want) {
		t.Fatal("journaled corpus differs from plain build")
	}
	if env.Batches() != plainEnv.Batches() || env.Simulations() != plainEnv.Simulations() {
		t.Fatalf("counters diverged: (%d, %d) vs (%d, %d)",
			env.Batches(), env.Simulations(), plainEnv.Batches(), plainEnv.Simulations())
	}

	// Full replay from the completed journal: zero new simulations, same
	// repository, counters restored to the originals.
	replayEnv := NewEnv(iounit.New(), seed, 3)
	defer replayEnv.Close()
	cur2, err := replayEnv.OpenCorpusJournal(path, sims, nil)
	if err != nil {
		t.Fatal(err)
	}
	defer cur2.Close()
	replayed, err := replayEnv.BuildCorpusJournaled(sims, cur2)
	if err != nil {
		t.Fatal(err)
	}
	if !reflect.DeepEqual(replayed, want) {
		t.Fatal("replayed corpus differs from plain build")
	}
	if replayEnv.Batches() != plainEnv.Batches() || replayEnv.Simulations() != plainEnv.Simulations() {
		t.Fatal("replay did not restore environment counters")
	}
}

// TestBuildCorpusJournaledResumeFromEveryCrash kills the journaled build
// at every append boundary (clean and torn), then recovers and resumes
// with a fresh environment: the final repository must be bit-identical
// to an uninterrupted build every time.
func TestBuildCorpusJournaledResumeFromEveryCrash(t *testing.T) {
	const seed, sims = 21, 25
	plainEnv := NewEnv(iounit.New(), seed, 2)
	defer plainEnv.Close()
	want := buildCorpus(t, plainEnv, sims)
	templates := len(iounit.New().BaseTemplates())

	// Append 0 is the header; templates occupy appends 1..templates.
	for fail := 1; fail <= templates; fail++ {
		for _, tear := range []int{0, 7} {
			path := filepath.Join(t.TempDir(), "corpus.journal")
			env := NewEnv(iounit.New(), seed, 2)
			cur, err := env.OpenCorpusJournal(path, sims, nil)
			if err != nil {
				t.Fatal(err)
			}
			cur.Writer().FailAppends(fail, tear)
			if _, err := env.BuildCorpusJournaled(sims, cur); !errors.Is(err, journal.ErrInjected) {
				t.Fatalf("fail=%d tear=%d: err = %v, want ErrInjected", fail, tear, err)
			}
			cur.Close()
			env.Close()

			resumed := NewEnv(iounit.New(), seed, 2)
			cur2, err := resumed.OpenCorpusJournal(path, sims, nil)
			if err != nil {
				t.Fatalf("fail=%d tear=%d: reopen: %v", fail, tear, err)
			}
			got, err := resumed.BuildCorpusJournaled(sims, cur2)
			if err != nil {
				t.Fatalf("fail=%d tear=%d: resume: %v", fail, tear, err)
			}
			cur2.Close()
			if !reflect.DeepEqual(got, want) {
				t.Fatalf("fail=%d tear=%d: resumed corpus differs", fail, tear)
			}
			if resumed.Batches() != plainEnv.Batches() || resumed.Simulations() != plainEnv.Simulations() {
				t.Fatalf("fail=%d tear=%d: counters diverged", fail, tear)
			}
			resumed.Close()
		}
	}
}

// TestOpenCorpusJournalRejectsMismatch: a journal written for one
// (unit, seed, budget) must not replay into a different build.
func TestOpenCorpusJournalRejectsMismatch(t *testing.T) {
	path := filepath.Join(t.TempDir(), "corpus.journal")
	env := NewEnv(iounit.New(), 21, 1)
	defer env.Close()
	cur, err := env.OpenCorpusJournal(path, 10, nil)
	if err != nil {
		t.Fatal(err)
	}
	cur.Close()

	other := NewEnv(iounit.New(), 22, 1)
	defer other.Close()
	if _, err := other.OpenCorpusJournal(path, 10, nil); err == nil {
		t.Fatal("resume with a different seed succeeded")
	}
	if _, err := env.OpenCorpusJournal(path, 11, nil); err == nil {
		t.Fatal("resume with a different budget succeeded")
	}
	toy := NewEnv(newToy(), 21, 1)
	defer toy.Close()
	if _, err := toy.OpenCorpusJournal(path, 10, nil); err == nil {
		t.Fatal("resume with a different unit succeeded")
	}
}

// TestParentCorpusJournalReplays: a corpus journal written by the code
// before the build went through the one replay-or-run loop
// (testdata/parent_corpus_iounit.journal, iounit, seed 21, 40 sims per
// template) replays with zero new simulations and nothing appended into
// the repository that build saved.
func TestParentCorpusJournalReplays(t *testing.T) {
	journalBytes, err := os.ReadFile(filepath.Join("testdata", "parent_corpus_iounit.journal"))
	if err != nil {
		t.Fatal(err)
	}
	path := filepath.Join(t.TempDir(), "corpus.journal")
	if err := os.WriteFile(path, journalBytes, 0o644); err != nil {
		t.Fatal(err)
	}
	env := NewEnv(iounit.New(), 21, 2)
	defer env.Close()
	rec := obs.NewRecorder()
	env.SetRecorder(rec)
	cur, err := env.OpenCorpusJournal(path, 40, rec)
	if err != nil {
		t.Fatal(err)
	}
	repo, err := env.BuildCorpusJournaled(40, cur)
	cur.Close()
	if err != nil {
		t.Fatal(err)
	}
	if n := rec.Counter("sim.instances_completed").Value(); n != 0 {
		t.Errorf("replay simulated %d instances, want 0", n)
	}
	if n := rec.Counter("sim.corpus_resumes").Value(); n != 1 {
		t.Errorf("sim.corpus_resumes = %d, want 1", n)
	}
	if got, _ := os.ReadFile(path); !bytes.Equal(got, journalBytes) {
		t.Errorf("replay changed the journal (%d bytes, was %d)", len(got), len(journalBytes))
	}
	var saved bytes.Buffer
	if err := repo.Save(&saved); err != nil {
		t.Fatal(err)
	}
	want, err := os.ReadFile(filepath.Join("testdata", "parent_corpus_iounit.repo.golden"))
	if err != nil {
		t.Fatal(err)
	}
	if !bytes.Equal(saved.Bytes(), want) {
		t.Fatalf("replayed repository differs from the parent build's:\n%s\nwant:\n%s", saved.Bytes(), want)
	}
}
