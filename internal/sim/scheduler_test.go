package sim

import (
	"sync"
	"testing"

	"repro/internal/coverage"
	"repro/internal/duv/iounit"
	"repro/internal/template"
)

// sameCounts fails unless a and b agree event-for-event and in total.
func sameCounts(t *testing.T, label string, a, b *coverage.Counts) {
	t.Helper()
	if a.Sims() != b.Sims() {
		t.Fatalf("%s: sims %d != %d", label, a.Sims(), b.Sims())
	}
	if a.Len() != b.Len() {
		t.Fatalf("%s: len %d != %d", label, a.Len(), b.Len())
	}
	for i := 0; i < a.Len(); i++ {
		if a.Hits(i) != b.Hits(i) {
			t.Fatalf("%s: event %d hits %d != %d", label, i, a.Hits(i), b.Hits(i))
		}
	}
}

func TestSubmitWaitMatchesSequentialRun(t *testing.T) {
	// The scheduler path must be bit-identical to the single-worker
	// sequential path for the same env seed and submission order.
	seq := NewEnv(newToy(), 123, 1)
	par := NewEnv(newToy(), 123, 4)
	defer seq.Close()
	defer par.Close()
	base := seq.Unit().BaseTemplates()[0]
	for _, batch := range []struct {
		tmpl *template.Template
		n    int
	}{
		{modeB(t), 100},
		{base, 301},
		{nil, 57},
		{base, 5},
	} {
		want := run(t, seq, batch.tmpl, batch.n)
		got := submit(t, par, batch.tmpl, batch.n).Wait()
		sameCounts(t, "batch", want, got)
	}
	if seq.Simulations() != par.Simulations() {
		t.Fatalf("accounting: %d != %d", seq.Simulations(), par.Simulations())
	}
}

func TestConcurrentJobsBitIdentical(t *testing.T) {
	// All jobs submitted up front and in flight together must still match
	// a sequential env running the same batches in submission order.
	seq := NewEnv(newToy(), 7, 1)
	par := NewEnv(newToy(), 7, 8)
	defer seq.Close()
	defer par.Close()
	base := par.Unit().BaseTemplates()[0]
	templates := []*template.Template{base, modeB(t), base, nil, modeB(t), base}

	jobs := make([]*Job, len(templates))
	for i, tmpl := range templates {
		jobs[i] = submit(t, par, tmpl, 150)
	}
	for i, tmpl := range templates {
		sameCounts(t, "job", run(t, seq, tmpl, 150), jobs[i].Wait())
	}
}

func TestSubmitZeroInstances(t *testing.T) {
	env := NewEnv(newToy(), 9, 4)
	defer env.Close()
	job := submit(t, env, modeB(t), 0)
	c := job.Wait() // must not block
	if c.Sims() != 0 {
		t.Fatalf("zero-instance job ran %d sims", c.Sims())
	}
	if env.Simulations() != 0 {
		t.Fatalf("accounting = %d", env.Simulations())
	}
	// The batch counter is consumed even for empty jobs (matching Run), so
	// the next batch must align with a sequential env that also burned one.
	seq := NewEnv(newToy(), 9, 1)
	defer seq.Close()
	run(t, seq, modeB(t), 0)
	sameCounts(t, "post-empty", run(t, seq, modeB(t), 80), submit(t, env, modeB(t), 80).Wait())
}

func TestSubmitCountsAtSubmission(t *testing.T) {
	env := NewEnv(newToy(), 10, 2)
	defer env.Close()
	job := submit(t, env, modeB(t), 64)
	if env.Simulations() != 64 {
		t.Fatalf("submitted-but-unfinished job not counted: %d", env.Simulations())
	}
	job.Wait()
	if env.Simulations() != 64 {
		t.Fatalf("accounting drifted after Wait: %d", env.Simulations())
	}
}

func TestManyConcurrentSubmitters(t *testing.T) {
	// Submission from many goroutines is safe; per-job results are exact
	// even though inter-job submission order is nondeterministic.
	env := NewEnv(newToy(), 11, 4)
	defer env.Close()
	const goroutines, perJob = 8, 120
	var wg sync.WaitGroup
	for i := 0; i < goroutines; i++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			c := submit(t, env, modeB(t), perJob).Wait()
			if c.Sims() != perJob || c.Hits(1) != perJob {
				t.Errorf("job counts: sims %d hits %d", c.Sims(), c.Hits(1))
			}
		}()
	}
	wg.Wait()
	if env.Simulations() != goroutines*perJob {
		t.Fatalf("accounting = %d, want %d", env.Simulations(), goroutines*perJob)
	}
}

func TestSchedulerRealUnitEquivalence(t *testing.T) {
	// Real multi-parameter templates through both paths, every event
	// compared.
	seq := NewEnv(iounit.New(), 42, 1)
	par := NewEnv(iounit.New(), 42, 6)
	defer seq.Close()
	defer par.Close()
	for _, tmpl := range seq.Unit().BaseTemplates() {
		sameCounts(t, tmpl.Name, run(t, seq, tmpl, 120), submit(t, par, tmpl, 120).Wait())
	}
}

// TestRunMatchesSequential: Run on a pool (every batch through the
// scheduler) and Run on one worker (inline) agree batch for batch over
// a sequence of templates, so the batch counter seeds both alike.
func TestRunMatchesSequential(t *testing.T) {
	seq := NewEnv(iounit.New(), 5, 1)
	par := NewEnv(iounit.New(), 5, 4)
	defer seq.Close()
	defer par.Close()
	for _, tmpl := range seq.Unit().BaseTemplates() {
		sameCounts(t, tmpl.Name, run(t, seq, tmpl, 60), run(t, par, tmpl, 60))
	}
}

func TestEnvCloseIdempotent(t *testing.T) {
	env := NewEnv(newToy(), 1, 3)
	submit(t, env, modeB(t), 20).Wait()
	env.Close()
	env.Close() // second close must not panic
}
