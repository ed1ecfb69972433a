// Package repro's root bench suite runs the ablation benches DESIGN.md
// calls out and micro-benchmarks the substrates. The paper's figures are
// checked, claim by claim over held-out seeds, by TestClaims in
// internal/figures; cmd/repro regenerates them.
package repro

import (
	"encoding/json"
	"fmt"
	"testing"
	"time"

	"repro/internal/core"
	"repro/internal/coverage"
	"repro/internal/duv/iounit"
	"repro/internal/duv/l3cache"
	"repro/internal/farm"
	"repro/internal/generator"
	"repro/internal/neighbors"
	"repro/internal/obs"
	"repro/internal/opt"
	"repro/internal/rng"
	"repro/internal/sim"
	"repro/internal/skeleton"
	"repro/internal/tac"
	"repro/internal/template"
)

// mustRun / mustSubmit / mustCorpus panic on error: every bench drives
// an open environment, where these paths cannot fail.
func mustRun(env *sim.Env, tmpl *template.Template, n int) *coverage.Counts {
	c, err := env.Run(tmpl, n)
	if err != nil {
		panic(err)
	}
	return c
}

func mustSubmit(env *sim.Env, tmpl *template.Template, n int) *sim.Job {
	job, err := env.Submit(tmpl, n)
	if err != nil {
		panic(err)
	}
	return job
}

func mustCorpus(env *sim.Env, sims int) *coverage.Repository {
	repo, err := env.BuildCorpus(sims)
	if err != nil {
		panic(err)
	}
	return repo
}

// --- Ablation benches (design choices called out in DESIGN.md §5) ---

// ablationSetup prepares the shared fixture for optimizer ablations on
// the L3 unit: the skeleton of the TAC-selected candidate, the
// decay-weighted approximated target, and a fresh batch environment.
type ablationFixture struct {
	env    *sim.Env
	skel   *skeleton.Skeleton
	target *neighbors.Target
	x0     []float64
}

func ablationSetup(b *testing.B, seed uint64) *ablationFixture {
	b.Helper()
	unit := l3cache.New()
	env := sim.NewEnv(unit, seed, 0)
	repo := mustCorpus(env, 800)
	model := unit.Model()
	fam, _ := model.Family(l3cache.FamilyName)
	var targets []int
	for _, id := range fam {
		if repo.Total().Hits(id) == 0 {
			targets = append(targets, id)
		}
	}
	if len(targets) == 0 {
		targets = fam[len(fam)-1:]
	}
	ws, err := neighbors.Ordinal(model, l3cache.FamilyName, targets, 0.4)
	if err != nil {
		b.Fatal(err)
	}
	target := neighbors.NewTarget(ws)

	stats := tac.New(repo)
	ranked, err := stats.BestTemplates(target.Events(), target.Weights(), 2)
	if err != nil {
		b.Fatal(err)
	}
	byName := map[string]*template.Template{}
	for _, t := range unit.BaseTemplates() {
		byName[t.Name] = t
	}
	var chosen []*template.Template
	for _, ts := range ranked {
		if t, ok := byName[ts.Name]; ok {
			chosen = append(chosen, t)
		}
	}
	candidate := core.MergeTemplates("ablation_candidate", chosen)
	skel, err := skeleton.Skeletonize(candidate, skeleton.Options{Subranges: 4})
	if err != nil {
		b.Fatal(err)
	}

	// Shared random-sample phase: the starting point every ablation uses.
	r := rng.New(seed).SplitString("ablation")
	bestScore, x0 := -1.0, skel.RandomWeights(r)
	for i := 0; i < 20; i++ {
		x := skel.RandomWeights(r)
		tmpl, err := skel.Instantiate("s", x)
		if err != nil {
			b.Fatal(err)
		}
		if score := target.Score(mustRun(env, tmpl, 50)); score > bestScore {
			bestScore, x0 = score, x
		}
	}
	return &ablationFixture{env: env, skel: skel, target: target, x0: x0}
}

// objective returns the noisy approximated-target objective with N sims
// per point.
func (f *ablationFixture) objective(simsPerPoint int) opt.Objective {
	return func(x []float64) float64 {
		tmpl, err := f.skel.Instantiate("cand", x)
		if err != nil {
			panic(err)
		}
		return f.target.Score(mustRun(f.env, tmpl, simsPerPoint))
	}
}

// trueValue measures the returned point with a large budget — the
// ablation's ground-truth metric.
func (f *ablationFixture) trueValue(x []float64) float64 {
	tmpl, err := f.skel.Instantiate("eval", x)
	if err != nil {
		panic(err)
	}
	return f.target.Score(mustRun(f.env, tmpl, 2000))
}

// optimize runs the named engine ("" = implicit filtering) over obj
// through the surface production runs — opt.New over opt.MergeParams,
// then opt.Drive. over is a JSON object of engine knobs overlaid on the
// ablations' common setting of 11 directions x 8 iterations; the flow
// itself sets only those two and leaves every other knob at its default.
func optimize(b *testing.B, engine string, obj opt.Objective, cfg opt.EngineConfig, over string) opt.Result {
	b.Helper()
	params, err := opt.MergeParams(map[string]any{"directions": 11, "iterations": 8}, json.RawMessage(over))
	if err != nil {
		b.Fatal(err)
	}
	eng, err := opt.New(engine, cfg, params)
	if err != nil {
		b.Fatal(err)
	}
	res, err := opt.Drive(eng, opt.DriveOptions{Objective: obj, BatchSize: 11})
	if err != nil {
		b.Fatal(err)
	}
	return res
}

// BenchmarkAblationSamplesPerPoint varies N, the sims per objective
// sample (paper Section IV-E: larger N cuts noise but costs sims).
func BenchmarkAblationSamplesPerPoint(b *testing.B) {
	for _, n := range []int{25, 100, 400} {
		b.Run(map[int]string{25: "N25", 100: "N100", 400: "N400"}[n], func(b *testing.B) {
			for i := 0; i < b.N; i++ {
				fix := ablationSetup(b, uint64(i+1))
				res := optimize(b, "", fix.objective(n), opt.EngineConfig{X0: fix.x0, RNG: rng.New(uint64(i + 7))}, "")
				b.ReportMetric(fix.trueValue(res.X), "true_target")
				b.ReportMetric(float64(res.Evals*n), "sims")
			}
		})
	}
}

// BenchmarkAblationDirections varies n, the directions per iteration.
func BenchmarkAblationDirections(b *testing.B) {
	for _, n := range []int{5, 11, 19} {
		b.Run(map[int]string{5: "n5", 11: "n11", 19: "n19"}[n], func(b *testing.B) {
			for i := 0; i < b.N; i++ {
				fix := ablationSetup(b, uint64(i+1))
				res := optimize(b, "", fix.objective(100), opt.EngineConfig{X0: fix.x0, RNG: rng.New(uint64(i + 7))},
					fmt.Sprintf(`{"directions": %d}`, n))
				b.ReportMetric(fix.trueValue(res.X), "true_target")
			}
		})
	}
}

// BenchmarkAblationStencil varies the initial stencil size h.
func BenchmarkAblationStencil(b *testing.B) {
	for _, h := range []float64{6.25, 25, 50} {
		b.Run(map[float64]string{6.25: "h6", 25: "h25", 50: "h50"}[h], func(b *testing.B) {
			for i := 0; i < b.N; i++ {
				fix := ablationSetup(b, uint64(i+1))
				res := optimize(b, "", fix.objective(100), opt.EngineConfig{X0: fix.x0, RNG: rng.New(uint64(i + 7))},
					fmt.Sprintf(`{"initial_step": %v}`, h))
				b.ReportMetric(fix.trueValue(res.X), "true_target")
			}
		})
	}
}

// BenchmarkAblationNoSampling compares starting the optimizer from the
// best random sample (paper Section IV-D) against a random start.
func BenchmarkAblationNoSampling(b *testing.B) {
	for _, sampled := range []bool{true, false} {
		name := "random_start"
		if sampled {
			name = "sampled_start"
		}
		b.Run(name, func(b *testing.B) {
			for i := 0; i < b.N; i++ {
				fix := ablationSetup(b, uint64(i+1))
				x0 := fix.x0
				if !sampled {
					x0 = fix.skel.RandomWeights(rng.New(uint64(i + 99)))
				}
				res := optimize(b, "", fix.objective(100), opt.EngineConfig{X0: x0, RNG: rng.New(uint64(i + 7))}, "")
				b.ReportMetric(fix.trueValue(res.X), "true_target")
			}
		})
	}
}

// BenchmarkAblationRawTarget compares the approximated target against
// the raw (uncovered-events-only) target — the flat landscape the paper
// motivates the approximated target with (Section IV-A).
func BenchmarkAblationRawTarget(b *testing.B) {
	for _, approx := range []bool{true, false} {
		name := "raw_target"
		if approx {
			name = "approximated_target"
		}
		b.Run(name, func(b *testing.B) {
			for i := 0; i < b.N; i++ {
				fix := ablationSetup(b, uint64(i+1))
				objTarget := fix.target
				if !approx {
					// Raw target: only the real (deep, uncovered) events.
					m := l3cache.New().Model()
					fam, _ := m.Family(l3cache.FamilyName)
					objTarget = neighbors.Uniform(fam[11:]) // byp_reqs12..16
				}
				obj := func(x []float64) float64 {
					tmpl, err := fix.skel.Instantiate("cand", x)
					if err != nil {
						panic(err)
					}
					return objTarget.Score(mustRun(fix.env, tmpl, 100))
				}
				res := optimize(b, "", obj, opt.EngineConfig{X0: fix.x0, RNG: rng.New(uint64(i + 7))}, "")
				// Judge both by the same approximated target so the
				// numbers are comparable.
				b.ReportMetric(fix.trueValue(res.X), "true_target")
			}
		})
	}
}

// BenchmarkAblationWeightedTarget compares the uniform family sum
// (paper Section V) against the distance-weighted variant (Section
// IV-A's "giving more weight to events closer to our target").
func BenchmarkAblationWeightedTarget(b *testing.B) {
	unit := l3cache.New()
	model := unit.Model()
	fam, _ := model.Family(l3cache.FamilyName)
	for _, decay := range []float64{1.0, 0.4} {
		name := "uniform"
		if decay != 1.0 {
			name = "weighted"
		}
		b.Run(name, func(b *testing.B) {
			for i := 0; i < b.N; i++ {
				fix := ablationSetup(b, uint64(i+1))
				ws, err := neighbors.Ordinal(model, l3cache.FamilyName, fam[8:], decay)
				if err != nil {
					b.Fatal(err)
				}
				objTarget := neighbors.NewTarget(ws)
				obj := func(x []float64) float64 {
					tmpl, err := fix.skel.Instantiate("cand", x)
					if err != nil {
						panic(err)
					}
					return objTarget.Score(mustRun(fix.env, tmpl, 100))
				}
				res := optimize(b, "", obj, opt.EngineConfig{X0: fix.x0, RNG: rng.New(uint64(i + 7))}, "")
				// Judge by deep-event coverage: the sum of byp09..16 hit
				// rates of the returned template (the frontier reachable
				// at bench-scale budgets).
				tmpl, err := fix.skel.Instantiate("eval", res.X)
				if err != nil {
					b.Fatal(err)
				}
				counts := mustRun(fix.env, tmpl, 2000)
				deep := 0.0
				for _, id := range fam[8:] {
					deep += counts.HitRate(id)
				}
				b.ReportMetric(deep, "deep_rate_sum")
			}
		})
	}
}

// BenchmarkAblationOptimizers compares every registered engine under
// an equal budget of 100 objective evaluations, 100 sims each.
func BenchmarkAblationOptimizers(b *testing.B) {
	for _, engine := range opt.EngineNames() {
		b.Run(engine, func(b *testing.B) {
			for i := 0; i < b.N; i++ {
				fix := ablationSetup(b, uint64(i+1))
				res := optimize(b, engine, fix.objective(100),
					opt.EngineConfig{X0: fix.x0, MaxEvals: 100, RNG: rng.New(uint64(i + 7))},
					`{"iterations": 100, "min_step": 1e-9}`) // budget-bound, not iteration- or stencil-bound
				b.ReportMetric(fix.trueValue(res.X), "true_target")
				b.ReportMetric(float64(res.Evals), "evals")
			}
		})
	}
}

// BenchmarkAblationResampleCenter toggles the paper's center-resampling
// noise guard.
func BenchmarkAblationResampleCenter(b *testing.B) {
	for _, resample := range []bool{true, false} {
		name := "resample"
		if !resample {
			name = "no_resample"
		}
		b.Run(name, func(b *testing.B) {
			for i := 0; i < b.N; i++ {
				fix := ablationSetup(b, uint64(i+1))
				res := optimize(b, "", fix.objective(50), opt.EngineConfig{X0: fix.x0, RNG: rng.New(uint64(i + 7))},
					fmt.Sprintf(`{"no_resample_center": %t}`, !resample))
				b.ReportMetric(fix.trueValue(res.X), "true_target")
			}
		})
	}
}

// --- Substrate micro-benchmarks ---

func BenchmarkTemplateParse(b *testing.B) {
	src := iounit.New().BaseTemplates()[4].String()
	b.ReportAllocs()
	for i := 0; i < b.N; i++ {
		if _, err := template.Parse(src); err != nil {
			b.Fatal(err)
		}
	}
}

func BenchmarkSkeletonInstantiate(b *testing.B) {
	tmpl := iounit.New().BaseTemplates()[4]
	skel, err := skeleton.Skeletonize(tmpl, skeleton.Options{Subranges: 4})
	if err != nil {
		b.Fatal(err)
	}
	r := rng.New(1)
	x := skel.RandomWeights(r)
	b.ReportAllocs()
	for i := 0; i < b.N; i++ {
		if _, err := skel.Instantiate("bench", x); err != nil {
			b.Fatal(err)
		}
	}
}

func BenchmarkTACBestTemplates(b *testing.B) {
	unit := iounit.New()
	env := sim.NewEnv(unit, 1, 0)
	repo := mustCorpus(env, 200)
	stats := tac.New(repo)
	fam, _ := unit.Model().Family(iounit.FamilyName)
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, err := stats.BestTemplates(fam, nil, 3); err != nil {
			b.Fatal(err)
		}
	}
}

// BenchmarkGeneratorDecisions compares the two ways to ask a compiled
// plan for a decision: by parameter name (a map lookup and a string
// result per decision — what the bench ledger's generator.decision_ns
// probes) and through the deciders a model fetches for its handles
// before its cycle loop (what every unit's Simulate does: the decision
// inlines into the loop). 200 decisions per op.
func BenchmarkGeneratorDecisions(b *testing.B) {
	unit := iounit.New()
	plan := generator.Compile(unit.BaseTemplates()[4], unit.Defaults())
	bind := generator.Bind(unit.Defaults())
	hCommand, hGap := bind.Handle("Command"), bind.Handle("Gap")
	sum := 0
	b.Run("name", func(b *testing.B) {
		g := generator.NewFromPlan(plan, 1)
		b.ReportAllocs()
		for i := 0; i < b.N; i++ {
			for j := 0; j < 100; j++ {
				sum += len(g.PickValue("Command")) + g.PickInt("Gap")
			}
		}
	})
	b.Run("handle", func(b *testing.B) {
		g := generator.NewFromPlan(plan, 1)
		r, command, gap := g.RNG(), g.Choice(hCommand), g.Ranges(hGap)
		b.ReportAllocs()
		for i := 0; i < b.N; i++ {
			for j := 0; j < 100; j++ {
				sum += command.Code(r) + gap.Pick(r).Int(r)
			}
		}
	})
	decisionSum = sum
}

// decisionSum keeps the compiler from discarding the benchmarked decisions.
var decisionSum int

// BenchmarkSchedulerThroughput pushes (template, N) batch jobs through
// the sequential reference path and the persistent worker-pool
// scheduler. ns/sim is the comparable figure; the scheduler variants
// scale with GOMAXPROCS while the sequential path stays single-core.
func BenchmarkSchedulerThroughput(b *testing.B) {
	unit := iounit.New()
	tmpl := unit.BaseTemplates()[0]
	const batch = 256
	report := func(b *testing.B) {
		b.Helper()
		b.ReportMetric(float64(b.Elapsed().Nanoseconds())/float64(b.N*batch), "ns/sim")
	}
	b.Run("sequential", func(b *testing.B) {
		env := sim.NewEnv(unit, 1, 1)
		defer env.Close()
		b.ReportAllocs()
		for i := 0; i < b.N; i++ {
			_ = mustRun(env, tmpl, batch)
		}
		report(b)
	})
	b.Run("scheduler", func(b *testing.B) {
		env := sim.NewEnv(unit, 1, 0) // GOMAXPROCS workers
		defer env.Close()
		b.ReportAllocs()
		for i := 0; i < b.N; i++ {
			_ = mustSubmit(env, tmpl, batch).Wait()
		}
		report(b)
	})
	b.Run("scheduler_metrics", func(b *testing.B) {
		// The scheduler path with full observability (metrics + tracing)
		// enabled — the overhead the internal/sim bench guard bounds at 5%.
		env := sim.NewEnv(unit, 1, 0)
		defer env.Close()
		env.SetRecorder(obs.NewRecorder())
		b.ReportAllocs()
		for i := 0; i < b.N; i++ {
			_ = mustSubmit(env, tmpl, batch).Wait()
		}
		report(b)
	})
	b.Run("scheduler_4jobs", func(b *testing.B) {
		// Four concurrent jobs in flight, as the batch objective submits
		// them during one optimizer iteration.
		env := sim.NewEnv(unit, 1, 0)
		defer env.Close()
		b.ReportAllocs()
		for i := 0; i < b.N; i++ {
			jobs := make([]*sim.Job, 4)
			for j := range jobs {
				jobs[j] = mustSubmit(env, tmpl, batch/4)
			}
			for _, j := range jobs {
				_ = j.Wait()
			}
		}
		report(b)
	})
}

func BenchmarkFarmLoopback(b *testing.B) {
	// The full farm RPC path — frame codec, dispatcher pooling, server
	// execution — over the in-memory loopback transport, so the number
	// is pure protocol + scheduling overhead with no real network.
	unit := iounit.New()
	tmpl := unit.BaseTemplates()[0]
	const batch = 256
	lb := farm.NewLoopback()
	addrs := []string{"bench-w0", "bench-w1"}
	for _, addr := range addrs {
		srv := farm.NewServer(farm.ServerOptions{Capacity: 2})
		defer srv.Shutdown()
		lb.Add(addr, srv, farm.Faults{})
	}
	d := farm.New(addrs, farm.Options{Dial: lb.Dial})
	defer d.Close()
	if err := d.WaitReady(5 * time.Second); err != nil {
		b.Fatal(err)
	}
	env := sim.NewEnv(unit, 1, 0)
	defer env.Close()
	env.AttachRunner(d, d.Lanes())
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		_ = mustSubmit(env, tmpl, batch).Wait()
	}
	b.ReportMetric(float64(b.Elapsed().Nanoseconds())/float64(b.N*batch), "ns/sim")
	b.ReportMetric(float64(b.N*batch)/b.Elapsed().Seconds(), "sims/sec")
}
