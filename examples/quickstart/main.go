// Quickstart: run the complete AS-CDG flow against the built-in I/O
// unit and watch it hit previously-uncovered CRC-FIFO events.
//
//	go run ./examples/quickstart
//
// The flow (paper Fig. 2): build the "Before CDG" regression corpus,
// form an approximated target from the crc_* family, let TAC pick the
// best existing templates, skeletonize them, random-sample the weight
// space, optimize with implicit filtering, and harvest the winner.
package main

import (
	"context"

	"fmt"
	"log"

	"repro/internal/core"
	"repro/internal/duv/iounit"
)

func main() {
	unit := iounit.New()
	flow, err := core.New(unit, core.Config{
		Seed:                  42,
		CorpusSimsPerTemplate: 2000, // "several weeks" of regression, scaled down
		SampleTemplates:       50,   // random sample: n templates ...
		SampleSims:            100,  // ... N sims each
		OptIterations:         7,
		OptDirections:         10,
		OptSims:               200,
		BestSims:              2000,
	})
	if err != nil {
		log.Fatal(err)
	}

	// Two refinement rounds: the first pushes the frontier (crc_032),
	// the second climbs onto the evidence it created (crc_064).
	reports, err := flow.Run(context.Background(), core.Target{Family: iounit.FamilyName, Decay: 0.4, Rounds: 2})
	if err != nil {
		log.Fatal(err)
	}

	model := unit.Model()
	final := reports[len(reports)-1]
	fmt.Print(final.Summary(model))
	fmt.Println()

	table, err := final.FormatFamilyTable(model, iounit.FamilyName)
	if err != nil {
		log.Fatal(err)
	}
	fmt.Println(table)

	fmt.Println("harvested test-template (add this to your regression suite):")
	fmt.Print(final.BestTemplate.String())
}
