package core

import (
	"encoding/json"
	"fmt"

	"repro/internal/coverage"
	"repro/internal/neighbors"
	"repro/internal/opt"
	"repro/internal/rng"
	"repro/internal/sim"
	"repro/internal/skeleton"
	"repro/internal/tac"
	"repro/internal/template"
)

// The steps of the flow, one function each, in the paper's order. Every
// step opens its own phase span, journals the simulations it paid for
// and replays them on resume, so pipeline, which calls them in order,
// checkpoints without journaling anything itself beyond its round
// brackets.

// phase runs one step inside its span and phase_start/phase_end event
// pair: the span closes with the step's result attributes on success
// and bare on failure.
func (f *Flow) phase(name string, start map[string]any, step func() (map[string]any, error)) error {
	ph := f.rec.PhaseStart(name, start)
	end, err := step()
	if err != nil {
		end = nil
	}
	ph.End(end)
	return err
}

// buildCorpus builds the "Before CDG" corpus — the unit's base
// regression suite run into the repository through RunBatches: built,
// replayed from the journal, or taken from the corpus cache. Run calls
// it once, before the composition.
func (f *Flow) buildCorpus() error {
	start := map[string]any{"sims_per_template": f.cfg.CorpusSimsPerTemplate}
	return f.phase("corpus", start, func() (map[string]any, error) {
		repo, err := f.env.BuildCorpusJournaled(f.cfg.CorpusSimsPerTemplate, f.cur)
		if err != nil {
			return nil, err
		}
		f.repo = repo
		return map[string]any{"sims": repo.Sims()}, nil
	})
}

// uncovered returns the events of ids that have no evidence in the
// repository, in order.
func (f *Flow) uncovered(ids []int) []int {
	var out []int
	for _, id := range ids {
		if f.repo.Total().Hits(id) == 0 {
			out = append(out, id)
		}
	}
	return out
}

// approximate is step 1, the approximated target (paper Section IV-A),
// for a validated target's mode.
func (f *Flow) approximate(t Target) (*neighbors.Target, []int, error) {
	switch {
	case t.Family != "":
		return f.familyTarget(t.Family, t.decay())
	case t.Cross != "":
		return f.crossTarget(t.Cross)
	default:
		return f.eventsTarget(t.Events, t.minSim())
	}
}

// familyTarget is step 1 for a buffer-utilization family: the real
// targets are the family events still uncovered after the corpus — or,
// everything already covered, its deepest (last) member — and the
// approximated target is their decay-weighted ordinal neighborhood.
func (f *Flow) familyTarget(family string, decay float64) (target *neighbors.Target, targets []int, err error) {
	model := f.env.Unit().Model()
	famIDs, _ := model.Family(family)
	err = f.phase("neighbors", map[string]any{"family": family, "decay": decay}, func() (map[string]any, error) {
		if targets = f.uncovered(famIDs); len(targets) == 0 {
			targets = famIDs[len(famIDs)-1:]
		}
		ws, err := neighbors.Ordinal(model, family, targets, decay)
		if err != nil {
			return nil, err
		}
		target = neighbors.NewTarget(ws)
		return map[string]any{"targets": len(targets), "approx_events": len(ws)}, nil
	})
	return target, targets, err
}

// crossTarget is step 1 for a cross product: the real targets are the
// cross's uncovered events (all of them once everything is covered) and
// the approximated target spans the whole cross uniformly.
func (f *Flow) crossTarget(crossName string) (target *neighbors.Target, targets []int, err error) {
	model := f.env.Unit().Model()
	cp, _ := model.Cross(crossName)
	err = f.phase("neighbors", map[string]any{"cross": crossName}, func() (map[string]any, error) {
		ids, err := model.IDs(cp.EventNames())
		if err != nil {
			return nil, err
		}
		if targets = f.uncovered(ids); len(targets) == 0 {
			targets = ids
		}
		target = neighbors.Uniform(ids)
		return map[string]any{"targets": len(targets), "approx_events": len(ids)}, nil
	})
	return target, targets, err
}

// eventsTarget is step 1 for an arbitrary event list: the approximated
// target is mined from the repository by hit-profile correlation (the
// FRIENDS substitute): the targets themselves at weight 1, plus every
// event whose per-template hit profile resembles theirs, weighted by
// similarity. At least one target must already have evidence — for
// fully dark targets, structural neighbors (a family or cross target)
// are the right tool, exactly as in the paper.
func (f *Flow) eventsTarget(eventNames []string, minSim float64) (target *neighbors.Target, targets []int, err error) {
	targets, err = f.env.Unit().Model().IDs(eventNames)
	if err != nil {
		return nil, nil, err
	}
	err = f.phase("neighbors", map[string]any{"min_sim": minSim}, func() (map[string]any, error) {
		ws, err := neighbors.Correlated(f.repo, targets, minSim)
		if err != nil {
			return nil, err
		}
		target = neighbors.NewTarget(ws)
		return map[string]any{"targets": len(targets), "approx_events": len(ws)}, nil
	})
	return target, targets, err
}

// coarseSearch is step 2, the coarse-grained search (paper Section
// IV-B): TAC ranks the existing templates against the approximated
// target, and the parameters of the best TopTemplates are merged into
// the candidate the Skeletonizer starts from. The known bodies are the
// base suite's and those the campaign's prior rounds harvested. The
// repository may hold statistics for templates whose bodies the flow
// does not have (e.g. harvested by other flows against a shared
// corpus); only templates with known bodies can seed the skeleton, so
// all are ranked and the best known ones kept.
func (f *Flow) coarseSearch(target *neighbors.Target, prior []*Report) (best []tac.TemplateScore, candidate *template.Template, err error) {
	var chosen []*template.Template
	err = f.phase("tac", map[string]any{"approx_events": target.Len()}, func() (map[string]any, error) {
		ranked, err := tac.New(f.repo).BestTemplates(target.Events(), target.Weights(), 0)
		if err != nil {
			return nil, err
		}
		byName := map[string]*template.Template{}
		for _, t := range f.env.Unit().BaseTemplates() {
			byName[t.Name] = t
		}
		for _, r := range prior {
			byName[r.BestTemplate.Name] = r.BestTemplate
		}
		for _, ts := range ranked {
			t, ok := byName[ts.Name]
			if !ok {
				continue
			}
			best = append(best, ts)
			chosen = append(chosen, t)
			if len(best) == f.cfg.TopTemplates {
				break
			}
		}
		return map[string]any{"chosen": len(best)}, nil
	})
	if err != nil {
		return nil, nil, err
	}
	if len(best) == 0 || best[0].Score == 0 {
		return nil, nil, fmt.Errorf("core: no existing template shows evidence for the approximated target; widen the neighborhood")
	}
	return best, MergeTemplates(f.env.Unit().Name()+"_cdg_candidate", chosen), nil
}

// skeletonize is step 3 (paper Section IV-C): the candidate's weights
// and ranges become the fine-grained search box.
func (f *Flow) skeletonize(candidate *template.Template) (skel *skeleton.Skeleton, err error) {
	err = f.phase("skeleton", map[string]any{"candidate": candidate.Name}, func() (map[string]any, error) {
		skel, err = skeleton.Skeletonize(candidate, skeleton.Options{Subranges: f.cfg.Subranges})
		if err != nil {
			return nil, err
		}
		return map[string]any{"dim": skel.Dim()}, nil
	})
	return skel, err
}

// sample is one evaluated point of the random-sample phase.
type sample struct {
	x      []float64
	counts *coverage.Counts
}

// sampleBox is step 4, the random-sample phase (paper Section IV-D). It
// returns the individual samples, from which optimize picks its start,
// and the phase aggregate; the span reports the best sampled score
// under target.
func (f *Flow) sampleBox(skel *skeleton.Skeleton, r *rng.RNG, target *neighbors.Target) (samples []sample, stats PhaseStats, err error) {
	start := map[string]any{"templates": f.cfg.SampleTemplates, "sims_each": f.cfg.SampleSims}
	err = f.phase("sampling", start, func() (map[string]any, error) {
		var aggregate *coverage.Counts
		samples, aggregate, err = f.samplePhase(skel, r)
		if err != nil {
			return nil, err
		}
		stats = PhaseStats{
			Name:        "sampling",
			Description: fmt.Sprintf("%d tests x %d sims each", f.cfg.SampleTemplates, f.cfg.SampleSims),
			Counts:      aggregate,
		}
		_, bestScore := bestSample(samples, target)
		return map[string]any{"best_score": bestScore}, nil
	})
	return samples, stats, err
}

// samplePhase simulates the random sample: SampleTemplates uniform
// points in the skeleton's weight box, SampleSims sims each, as the
// batches of one sim.Env.RunBatches loop (submitted up front, simulated
// concurrently on the scheduler; submission order fixes the batch
// seeds). Every point's weights are drawn from r, replayed or not, so the
// stream advances exactly as the live run's did.
func (f *Flow) samplePhase(skel *skeleton.Skeleton, r *rng.RNG) ([]sample, *coverage.Counts, error) {
	samples := make([]sample, f.cfg.SampleTemplates)
	batches := make([]sim.Batch, len(samples))
	for i := range samples {
		samples[i].x = skel.RandomWeights(r)
		tmpl, err := skel.Instantiate(fmt.Sprintf("sample_%03d", i), samples[i].x)
		if err != nil {
			return nil, nil, err
		}
		batches[i] = sim.Batch{I: i, Tmpl: tmpl, Sims: f.cfg.SampleSims}
	}
	recs, err := f.env.RunBatches(f.cur, "sample", batches, nil)
	if err != nil {
		return nil, nil, err
	}
	aggregate := coverage.NewCountsFor(f.env.Unit().Model())
	for i, rec := range recs {
		samples[i].counts = rec.Counts()
		aggregate.Merge(samples[i].counts)
	}
	return samples, aggregate, nil
}

// bestSample returns the sampled point with the highest target score,
// and that score.
func bestSample(samples []sample, target *neighbors.Target) ([]float64, float64) {
	best := samples[0].x
	bestScore := target.Score(samples[0].counts)
	for _, s := range samples[1:] {
		if score := target.Score(s.counts); score > bestScore {
			bestScore = score
			best = s.x
		}
	}
	return best, bestScore
}

// optimize is step 5 (paper Section IV-E, Algorithm 1): the configured
// engine climbs from the target's best sampled point, drawing its
// randomness from r. Every completed engine iteration is journaled as
// an opt_iter record, and a resumed run re-enters at the iteration after
// the last one recorded.
func (f *Flow) optimize(skel *skeleton.Skeleton, samples []sample, target *neighbors.Target, r *rng.RNG) (res opt.Result, stats PhaseStats, err error) {
	x0, startScore := bestSample(samples, target)
	start := map[string]any{
		"iterations": f.cfg.OptIterations, "directions": f.cfg.OptDirections, "sims_per_point": f.cfg.OptSims,
		"start_score": startScore,
	}
	err = f.phase("optimization", start, func() (map[string]any, error) {
		engineName := f.cfg.engineName()
		counts, resume, err := f.replayOptimizer(engineName)
		if err != nil {
			return nil, err
		}
		var batchErr error
		checkpoint := func(state json.RawMessage) error {
			// An iteration evaluated on a failed or canceled batch must not
			// reach the journal: its values are not real simulation results.
			if batchErr != nil {
				return batchErr
			}
			if err := f.ctxErr(); err != nil {
				return err
			}
			hits, sims := counts.Raw()
			return f.cur.Append("opt_iter", optIterRec{
				Engine: engineName, State: state, PhaseHits: hits, PhaseSims: sims,
				Batches: f.env.Batches(), EnvSims: f.env.Simulations(),
			})
		}
		params, err := f.cfg.engineParams()
		if err != nil {
			return nil, err
		}
		eng, err := opt.New(engineName, opt.EngineConfig{
			X0:       x0,
			Lo:       0,
			Hi:       float64(skel.MaxWeight()),
			RNG:      r,
			Recorder: f.rec,
			Prior:    f.cfg.Prior,
		}, params)
		if err != nil {
			return nil, err
		}
		res, err = opt.Drive(eng, opt.DriveOptions{
			Batch:      f.batchObjective(skel, target, counts, &batchErr),
			BatchSize:  f.cfg.OptDirections,
			Context:    f.ctx,
			Checkpoint: checkpoint,
			Resume:     resume,
		})
		if err == nil {
			err = batchErr
		}
		if err != nil {
			return nil, err
		}
		// The header counts the tests the last iteration ran: implicit
		// filtering resamples its centre beside the directions, the other
		// engines do not, and a first iteration may pay for extra starts.
		tests := 0
		if h := res.History; len(h) > 0 {
			tests = h[len(h)-1].Evals
			if len(h) > 1 {
				tests -= h[len(h)-2].Evals
			}
		}
		stats = PhaseStats{
			Name:        "optimization",
			Description: fmt.Sprintf("%d iterations x %d tests x %d sims", len(res.History), tests, f.cfg.OptSims),
			Counts:      counts,
		}
		return map[string]any{"best": res.Value, "evals": res.Evals}, nil
	})
	return res, stats, err
}

// replayOptimizer consumes the opt_iter records of the optimization
// about to run: the last one carries the engine's checkpoint and the
// cumulative phase aggregate, so the engine re-enters at the following
// iteration. With nothing to replay it returns an empty aggregate and
// no checkpoint.
func (f *Flow) replayOptimizer(engineName string) (*coverage.Counts, json.RawMessage, error) {
	model := f.env.Unit().Model()
	counts := coverage.NewCountsFor(model)
	var state json.RawMessage
	for {
		var rec optIterRec
		ok, err := f.cur.Take("opt_iter", &rec)
		if err != nil || !ok {
			return counts, state, err
		}
		if rec.Engine != engineName {
			return nil, nil, fmt.Errorf("core: journal opt_iter record is from engine %q, flow uses %q", rec.Engine, engineName)
		}
		if len(rec.PhaseHits) != model.Size() {
			return nil, nil, fmt.Errorf("core: journal opt_iter record has %d events, want %d", len(rec.PhaseHits), model.Size())
		}
		counts = coverage.CountsFromRaw(rec.PhaseHits, rec.PhaseSims)
		state = rec.State
		f.env.RestoreCounters(rec.Batches, rec.EnvSims)
	}
}

// batchObjective builds the optimizer's objective: every point becomes a
// (template, OptSims) job on the environment's scheduler. The points of
// one batch are independent, so they are submitted in order — batch
// seeds, and therefore results, match a sequential evaluation exactly —
// and waited on in order, keeping the phase aggregate's merge order
// deterministic too. A failure (closed or canceled environment) is
// parked in errOut and zeros are returned; the optimizer's checkpoint
// hook surfaces the error and aborts the run before the poisoned values
// can be journaled or acted on.
func (f *Flow) batchObjective(skel *skeleton.Skeleton, target *neighbors.Target, phase *coverage.Counts, errOut *error) opt.BatchObjective {
	return func(points [][]float64) []float64 {
		vals := make([]float64, len(points))
		if *errOut != nil {
			return vals
		}
		jobs := make([]*sim.Job, len(points))
		for i, x := range points {
			tmpl, err := skel.Instantiate("cand", x)
			if err != nil {
				*errOut = err
				return vals
			}
			job, err := f.env.Submit(tmpl, f.cfg.OptSims)
			if err != nil {
				*errOut = err
				return vals
			}
			jobs[i] = job
		}
		for i, job := range jobs {
			counts := job.Wait()
			if err := f.ctxErr(); err != nil {
				*errOut = err
				return vals
			}
			phase.Merge(counts)
			vals[i] = target.Score(counts)
		}
		return vals
	}
}

// harvest is step 6 (paper Section IV-F): the optimum is instantiated
// under name, measured standalone, and joins the regression suite — its
// runs recorded in the repository, last, so a failed harvest leaves the
// repository as it was. Its body is returned for the report, which is
// how a later round's coarse-grained search may select it.
func (f *Flow) harvest(skel *skeleton.Skeleton, x []float64, name string) (tmpl *template.Template, stats PhaseStats, err error) {
	err = f.phase("harvest", map[string]any{"sims": f.cfg.BestSims}, func() (map[string]any, error) {
		tmpl, err = skel.Instantiate(name, x)
		if err != nil {
			return nil, err
		}
		recs, err := f.env.RunBatches(f.cur, "harvest", []sim.Batch{{Name: name, Tmpl: tmpl, Sims: f.cfg.BestSims}}, nil)
		if err != nil {
			return nil, err
		}
		stats = PhaseStats{Name: "best", Description: fmt.Sprintf("%d sims", f.cfg.BestSims), Counts: recs[0].Counts()}
		return map[string]any{"template": tmpl.Name}, nil
	})
	if err != nil {
		return nil, PhaseStats{}, err
	}
	f.repo.RecordCounts(tmpl.Name, stats.Counts)
	return tmpl, stats, nil
}
