// L3 coverage-closure campaign: the paper's Fig. 4 scenario at a
// moderate budget.
//
//	go run ./examples/l3closure
//
// The L3 cache unit's byp_reqs01..16 family counts simultaneously
// outstanding bypass requests. Mainstream regression covers only the
// shallow levels; this example drives the AS-CDG flow until the family
// is covered, then inspects the phase-by-phase progression and the
// harvested template — including what the optimizer learned (bypass
// hints on, zero inter-arrival gaps, low locality).
package main

import (
	"context"

	"fmt"
	"log"

	"repro/internal/core"
	"repro/internal/coverage"
	"repro/internal/duv/l3cache"
)

func main() {
	unit := l3cache.New()
	flow, err := core.New(unit, core.Config{
		Seed:                  7,
		CorpusSimsPerTemplate: 4000,
		SampleTemplates:       60,
		SampleSims:            100,
		OptIterations:         12,
		OptDirections:         11,
		OptSims:               100,
		BestSims:              3000,
	})
	if err != nil {
		log.Fatal(err)
	}

	reports, err := flow.Run(context.Background(), core.Target{Family: l3cache.FamilyName, Decay: 0.4, Rounds: 3})
	if err != nil {
		log.Fatal(err)
	}

	model := unit.Model()
	famIDs, _ := model.Family(l3cache.FamilyName)

	fmt.Printf("campaign finished after %d round(s)\n\n", len(reports))
	for i, report := range reports {
		best := report.Phase("best").Counts
		newly := 0
		for _, ev := range report.TargetEvents {
			if best.Hits(ev) > 0 {
				newly++
			}
		}
		fmt.Printf("round %d: %d targets, %d newly hit by the harvested template, %d sims\n",
			i+1, len(report.TargetEvents), newly, report.TotalSims)
	}
	fmt.Println()

	final := reports[len(reports)-1]
	table, err := final.FormatFamilyTable(model, l3cache.FamilyName)
	if err != nil {
		log.Fatal(err)
	}
	fmt.Println(table)

	// Coverage-closure bookkeeping: what does the repository say now?
	repo := flow.Repository()
	sc := repo.Total().StatusCounts(famIDs)
	fmt.Printf("family status after the campaign: %d never / %d lightly / %d well hit\n\n",
		sc[coverage.StatusNever], sc[coverage.StatusLightly], sc[coverage.StatusWell])

	fmt.Println("optimization progress of the final round (paper Fig. 6):")
	fmt.Println(final.FormatProgress())

	fmt.Println("harvested test-template:")
	fmt.Print(final.BestTemplate.String())
}
