package sim

import (
	"testing"

	"repro/internal/coverage"
	"repro/internal/duv"
	"repro/internal/duv/iounit"
	"repro/internal/generator"
	"repro/internal/template"
)

// toyDUV is a deterministic two-event unit for environment tests: event
// 0 is always hit, event 1 is hit when the template sets Mode=b.
type toyDUV struct {
	model    *coverage.Model
	defaults generator.Defaults
}

func newToy() *toyDUV {
	m := coverage.MustModel([]string{"always", "mode_b"})
	def, err := template.Parse("template toy_defaults { weight Mode { a: 100; b: 0; } }")
	if err != nil {
		panic(err)
	}
	return &toyDUV{model: m, defaults: duv.DefaultsFromTemplate(def)}
}

func (d *toyDUV) Name() string                 { return "toy" }
func (d *toyDUV) Model() *coverage.Model       { return d.model }
func (d *toyDUV) Defaults() generator.Defaults { return d.defaults }
func (d *toyDUV) BaseTemplates() []*template.Template {
	t, _ := template.Parse("template toy_base { weight Mode { a: 50; b: 50; } }")
	return []*template.Template{t}
}
func (d *toyDUV) Simulate(g *generator.Generator) coverage.Vector {
	v := coverage.NewVectorFor(d.model)
	v.Set(0)
	if g.PickValue("Mode") == "b" {
		v.Set(1)
	}
	return v
}

func modeB(t *testing.T) *template.Template {
	t.Helper()
	tmpl, err := template.Parse("template b_only { weight Mode { a: 0; b: 100; } }")
	if err != nil {
		t.Fatal(err)
	}
	return tmpl
}

// run / submit / buildCorpus are must-helpers: the open-environment
// paths under test never return errors (ErrClosed is exercised by
// TestClosedEnvReturnsErrClosed).
func run(t *testing.T, env *Env, tmpl *template.Template, n int) *coverage.Counts {
	t.Helper()
	c, err := env.Run(tmpl, n)
	if err != nil {
		t.Fatal(err)
	}
	return c
}

func submit(t *testing.T, env *Env, tmpl *template.Template, n int) *Job {
	t.Helper()
	job, err := env.Submit(tmpl, n)
	if err != nil {
		t.Fatal(err)
	}
	return job
}

func buildCorpus(t *testing.T, env *Env, sims int) *coverage.Repository {
	t.Helper()
	repo, err := env.BuildCorpus(sims)
	if err != nil {
		t.Fatal(err)
	}
	return repo
}

func TestRunAggregates(t *testing.T) {
	env := NewEnv(newToy(), 1, 4)
	c := run(t, env, modeB(t), 100)
	if c.Sims() != 100 {
		t.Fatalf("sims = %d", c.Sims())
	}
	if c.Hits(0) != 100 || c.Hits(1) != 100 {
		t.Fatalf("hits = %d,%d", c.Hits(0), c.Hits(1))
	}
	if env.Simulations() != 100 {
		t.Fatalf("accounting = %d", env.Simulations())
	}
}

func TestRunNilTemplateUsesDefaults(t *testing.T) {
	env := NewEnv(newToy(), 2, 2)
	c := run(t, env, nil, 50)
	if c.Hits(1) != 0 {
		t.Fatalf("defaults hit mode_b %d times", c.Hits(1))
	}
}

func TestRunDeterministicPerSeed(t *testing.T) {
	mk := func() *coverage.Counts {
		env := NewEnv(newToy(), 42, 3)
		base := env.Unit().BaseTemplates()[0]
		return run(t, env, base, 200)
	}
	a, b := mk(), mk()
	for i := 0; i < 2; i++ {
		if a.Hits(i) != b.Hits(i) {
			t.Fatalf("event %d: %d != %d across identical envs", i, a.Hits(i), b.Hits(i))
		}
	}
}

func TestRepeatedBatchesSeeFreshNoise(t *testing.T) {
	env := NewEnv(newToy(), 7, 2)
	base := env.Unit().BaseTemplates()[0] // 50/50 template
	a := run(t, env, base, 500)
	b := run(t, env, base, 500)
	if a.Hits(1) == b.Hits(1) {
		t.Logf("two batches agreed exactly (%d); possible but unlikely", a.Hits(1))
	}
	// Both must look like ~50%.
	for _, c := range []*coverage.Counts{a, b} {
		if r := c.HitRate(1); r < 0.35 || r > 0.65 {
			t.Fatalf("batch rate = %v, want ~0.5", r)
		}
	}
}

func TestWorkerCountsEquivalent(t *testing.T) {
	// The same env seed must give the same aggregate regardless of the
	// worker count (work split is by index, not by scheduling).
	mk := func(workers int) *coverage.Counts {
		env := NewEnv(newToy(), 99, workers)
		return run(t, env, env.Unit().BaseTemplates()[0], 301)
	}
	a, b, c := mk(1), mk(4), mk(16)
	for i := 0; i < 2; i++ {
		if a.Hits(i) != b.Hits(i) || b.Hits(i) != c.Hits(i) {
			t.Fatalf("event %d differs across worker counts: %d/%d/%d", i, a.Hits(i), b.Hits(i), c.Hits(i))
		}
	}
}

func TestBuildCorpus(t *testing.T) {
	env := NewEnv(newToy(), 8, 2)
	repo := buildCorpus(t, env, 25)
	if repo.Sims() != 25 {
		t.Fatalf("corpus sims = %d", repo.Sims())
	}
	if _, ok := repo.Template("toy_base"); !ok {
		t.Fatal("base template missing from corpus")
	}
}

func TestBuildCorpusRealUnit(t *testing.T) {
	unit := iounit.New()
	env := NewEnv(unit, 11, 0)
	repo := buildCorpus(t, env, 20)
	want := uint64(20 * len(unit.BaseTemplates()))
	if repo.Sims() != want {
		t.Fatalf("corpus sims = %d, want %d", repo.Sims(), want)
	}
	if len(repo.TemplateNames()) != len(unit.BaseTemplates()) {
		t.Fatalf("templates = %v", repo.TemplateNames())
	}
	// Some coverage must exist.
	if repo.Total().Hits(unit.Model().MustLookup("io_cmd_crc")) == 0 {
		t.Fatal("corpus produced no coverage")
	}
}
