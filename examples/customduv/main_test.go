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
