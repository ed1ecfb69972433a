package main

import (
	"testing"

	"repro/internal/duv/duvtest"
)

// TestSimulateGolden locks the arbiter's simulated statistics bit for
// bit — the same harness the built-in units use.
func TestSimulateGolden(t *testing.T) {
	duvtest.SimulateGolden(t, newArbiter())
}

// TestSimulateRejectsForeignGenerator: the handles bound in newArbiter
// are only valid for plans compiled over the arbiter's own defaults.
func TestSimulateRejectsForeignGenerator(t *testing.T) {
	duvtest.RejectsForeignGenerator(t, newArbiter())
}
