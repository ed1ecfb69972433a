// Cross-product closure on the instruction fetch unit: the paper's
// Fig. 5 scenario.
//
//	go run ./examples/ifucross
//
// The IFU coverage model is a 256-event cross product over
// entry(0-7) x thread(0-3) x sector(0-3) x branch(seq,br). Default
// regression traffic is biased toward thread 0 and the first address
// sector, so most of the cross is dark. AS-CDG covers everything the
// unit can hit; the 32 entry7 events stay uncovered because the fetch
// queue's flow control never fills entry 7 — the flow surfaces that
// capability limit instead of hiding it.
package main

import (
	"context"

	"fmt"
	"log"

	"repro/internal/core"
	"repro/internal/duv/ifu"
)

func main() {
	unit := ifu.New()
	flow, err := core.New(unit, core.Config{
		Seed:                  3,
		CorpusSimsPerTemplate: 3000,
		TopTemplates:          3, // merge parameters from the top-3 templates
		SampleTemplates:       60,
		SampleSims:            100,
		OptIterations:         8,
		OptDirections:         12,
		OptSims:               150,
		BestSims:              4000,
	})
	if err != nil {
		log.Fatal(err)
	}

	reports, err := flow.Run(context.Background(), core.Target{Cross: ifu.CrossName})
	if err != nil {
		log.Fatal(err)
	}
	report := reports[0] // a cross target runs one round

	model := unit.Model()
	cross := unit.Cross()
	ids, err := model.IDs(cross.EventNames())
	if err != nil {
		log.Fatal(err)
	}

	fmt.Print(report.Summary(model))
	fmt.Println()
	fmt.Println(report.FormatStatusTable(model, ids))

	// Break the remaining uncovered events down by cross-product
	// attribute — the analysis a verification engineer would do next.
	best := report.Phase("best").Counts
	perEntry := map[string]int{}
	for _, name := range cross.EventNames() {
		if best.Hits(model.MustLookup(name)) == 0 {
			coords, err := cross.Coords(name)
			if err != nil {
				log.Fatal(err)
			}
			perEntry[cross.Dims[0].Values[coords[0]]]++
		}
	}
	fmt.Println("uncovered events by queue entry:")
	for _, v := range cross.Dims[0].Values {
		if perEntry[v] > 0 {
			fmt.Printf("  %s: %d\n", v, perEntry[v])
		}
	}
	fmt.Println("\n(entry e7 is beyond the unit's capabilities: fetch flow control",
		"\n stops at 7 queued entries, so nothing can ever land in entry 7)")

	// Confirm the rest of the cross is fully covered.
	covered := 0
	for _, id := range ids {
		if best.Hits(id) > 0 {
			covered++
		}
	}
	fmt.Printf("\ncovered by the harvested template: %d/%d cross events\n", covered, len(ids))
}
