package core

import (
	"math"
	"strings"
	"testing"

	"repro/internal/duv"
	"repro/internal/duv/ifu"
	"repro/internal/duv/iounit"
)

// TestTargetValidate is the table of the one target check Run, the
// service's admission and the CLIs share: mode, names and decay.
func TestTargetValidate(t *testing.T) {
	io, fe := duv.DUV(iounit.New()), duv.DUV(ifu.New())
	for _, tc := range []struct {
		name    string
		target  Target
		onIFU   bool
		wantErr string // "" = valid
	}{
		{"family", Target{Family: iounit.FamilyName, Decay: 0.4, Rounds: 3}, false, ""},
		{"family decay 1", Target{Family: iounit.FamilyName, Decay: 1}, false, ""},
		{"cross", Target{Cross: ifu.CrossName}, true, ""},
		{"events", Target{Events: []string{"crc_004", "crc_096"}, MinSim: 0.7}, false, ""},
		{"no mode", Target{}, false, "exactly one of family, cross or events is required"},
		{"empty event list", Target{Events: []string{}}, false, "exactly one of"},
		{"two modes", Target{Family: iounit.FamilyName, Events: []string{"crc_004"}}, false, "exactly one of"},
		{"three modes", Target{Family: "a", Cross: "b", Events: []string{"c"}}, false, "exactly one of"},
		{"unknown family", Target{Family: "no_such_family"}, false,
			`unit "iounit" has no family "no_such_family" (families: crc_fifo)`},
		{"unknown cross", Target{Cross: "no_such_cross"}, false,
			`unit "iounit" has no cross product "no_such_cross" (cross products: none)`},
		{"unknown event", Target{Events: []string{"crc_004", "no_such_event"}}, false, `unit "iounit": `},
		{"negative decay", Target{Family: iounit.FamilyName, Decay: -0.2}, false, "decay -0.2 outside (0, 1]"},
		{"decay above 1", Target{Family: iounit.FamilyName, Decay: 1.5}, false, "decay 1.5 outside (0, 1]"},
		{"NaN decay", Target{Family: iounit.FamilyName, Decay: math.NaN()}, false, "decay NaN outside (0, 1]"},
		{"decay on a cross", Target{Cross: ifu.CrossName, Decay: 2}, true, "decay 2 outside (0, 1]"},
		{"negative rounds", Target{Family: iounit.FamilyName, Rounds: -3}, false, "rounds -3 is negative"},
	} {
		unit := io
		if tc.onIFU {
			unit = fe
		}
		err := tc.target.Validate(unit)
		switch {
		case tc.wantErr == "" && err != nil:
			t.Errorf("%s: %v, want valid", tc.name, err)
		case tc.wantErr != "" && err == nil:
			t.Errorf("%s: valid, want %q", tc.name, tc.wantErr)
		case err != nil && !strings.HasPrefix(err.Error(), tc.wantErr):
			t.Errorf("%s: %q, want it to start with %q", tc.name, err, tc.wantErr)
		}
	}

	// Zero values select the defaults: decay 1, one round, min_sim 0.5.
	zero := Target{Family: iounit.FamilyName}
	if zero.decay() != 1 || zero.rounds() != 1 || zero.minSim() != 0.5 {
		t.Fatalf("zero-value defaults: decay %v, rounds %d, min_sim %v; want 1, 1, 0.5",
			zero.decay(), zero.rounds(), zero.minSim())
	}
	set := Target{Family: iounit.FamilyName, Decay: 0.4, Rounds: 3, MinSim: 0.7}
	if set.decay() != 0.4 || set.rounds() != 3 || set.minSim() != 0.7 {
		t.Fatalf("set values not kept: %+v", set)
	}
}
