package core

import (
	"context"
	"fmt"

	"repro/internal/neighbors"
	"repro/internal/rng"
)

// RunPerEventShared implements the paper's future-work direction
// (Section VI): amortizing simulations across several target events.
// Every uncovered event of the family becomes its own optimization
// target with its own distance-weighted approximated target, but the
// expensive shared phases run once:
//
//   - the "Before CDG" corpus,
//   - the coarse-grained TAC search and the skeleton,
//   - the random-sample phase — each target picks its own best starting
//     point from the same n x N simulations.
//
// Only the optimization and harvest phases run per target. Compared to
// independent Run calls for k targets this saves (k-1) x (corpus +
// sampling) simulations. Journaled like every other campaign: a resumed
// run replays the targets it had finished and re-enters the interrupted
// one mid-optimization.
//
// It returns one report per target event, in family order. family and
// decay are checked as Run checks a family target (decay 0 selects 1)
// before anything is simulated; ctx cancels and a flow runs one
// campaign, as in Run.
func (f *Flow) RunPerEventShared(ctx context.Context, family string, decay float64) ([]*Report, error) {
	target := Target{Family: family, Decay: decay}
	return f.campaign(ctx, target, func() ([]*Report, error) { return f.perEventShared(family, target.decay()) })
}

// perEventShared is the second of the flow's two compositions: steps
// 2-4 once, driven by the union of the family's targets, then steps 5-6
// per target event against its own approximated target.
func (f *Flow) perEventShared(family string, decay float64) ([]*Report, error) {
	union, targets, err := f.familyTarget(family, decay)
	if err != nil {
		return nil, err
	}
	simsAtStart := f.env.Simulations()
	before := f.beforePhase()
	before.Description += " (shared)"
	chosen, candidate, err := f.coarseSearch(union, nil)
	if err != nil {
		return nil, err
	}
	skel, err := f.skeletonize(candidate)
	if err != nil {
		return nil, err
	}
	r := rng.New(f.cfg.Seed).SplitString("cdg-runner-shared")
	samples, sampling, err := f.sampleBox(skel, r.SplitString("sample"), nil)
	if err != nil {
		return nil, err
	}
	sampling.Description += " (shared)"
	sharedSims := f.env.Simulations() - simsAtStart

	unit, model := f.env.Unit().Name(), f.env.Unit().Model()
	reports := make([]*Report, 0, len(targets))
	for _, ev := range targets {
		ws, err := neighbors.Ordinal(model, family, []int{ev}, decay)
		if err != nil {
			return nil, err
		}
		target, event := neighbors.NewTarget(ws), model.Name(ev)
		perTargetStart := f.env.Simulations()
		res, optimization, err := f.optimize(skel, samples, target, r.SplitString("optimize-"+event),
			map[string]any{"target": event})
		if err != nil {
			return nil, err
		}
		bestTemplate, best, err := f.harvest(skel, res.X, fmt.Sprintf("%s_cdg_%s_best", unit, event),
			map[string]any{"target": event, "sims": f.cfg.BestSims})
		if err != nil {
			return nil, err
		}
		reports = append(reports, &Report{
			Unit:            unit,
			Target:          target,
			TargetEvents:    []int{ev},
			ChosenTemplates: chosen,
			Candidate:       candidate,
			Skeleton:        skel,
			Phases:          []PhaseStats{before, sampling, optimization, best},
			BestWeights:     res.X,
			BestTemplate:    bestTemplate,
			Progress:        res.History,
			// Per-target accounting: this target's own spend plus its share
			// of the common phases.
			TotalSims: f.env.Simulations() - perTargetStart + sharedSims/uint64(len(targets)),
		})
	}
	return reports, nil
}
