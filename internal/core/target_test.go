package core

import (
	"math"
	"strings"
	"testing"

	"repro/internal/duv"
	"repro/internal/duv/ifu"
	"repro/internal/duv/iounit"
	"repro/internal/sim"
)

// TestTargetValidate is the table of the one target check Run, the
// service's admission and the CLIs share: mode, names, decay and rounds.
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
		{"decay in domain on a cross", Target{Cross: ifu.CrossName, Decay: 1}, true,
			"decay 1: only a family target is weighted by decay"},
		{"decay on events", Target{Events: []string{"crc_004"}, Decay: 0.3}, false,
			"decay 0.3: only a family target is weighted by decay"},
		{"min_sim 1", Target{Events: []string{"crc_004"}, MinSim: 1}, false, ""},
		{"negative min_sim", Target{Events: []string{"crc_004"}, MinSim: -3}, false, "min_sim -3 outside [0, 1]"},
		{"min_sim above 1", Target{Events: []string{"crc_004"}, MinSim: 7}, false, "min_sim 7 outside [0, 1]"},
		{"NaN min_sim", Target{Events: []string{"crc_004"}, MinSim: math.NaN()}, false, "min_sim NaN outside [0, 1]"},
		{"min_sim on a family", Target{Family: iounit.FamilyName, MinSim: 0.9}, false,
			"min_sim 0.9: only an events target mines neighbours by similarity"},
		{"min_sim on a cross", Target{Cross: ifu.CrossName, MinSim: 0.5}, true,
			"min_sim 0.5: only an events target mines neighbours by similarity"},
		{"negative rounds", Target{Family: iounit.FamilyName, Rounds: -3}, false, "rounds -3 is negative"},
		{"one round of a cross", Target{Cross: ifu.CrossName, Rounds: 1}, true, ""},
		{"rounds on a cross", Target{Cross: ifu.CrossName, Rounds: 3}, true,
			"rounds 3: only a family target runs more than one round"},
		{"rounds on events", Target{Events: []string{"crc_004"}, Rounds: 2}, false,
			"rounds 2: only a family target runs more than one round"},
		{"repeated event", Target{Events: []string{"crc_004", "crc_096", "crc_004"}}, false,
			`event "crc_004" is listed twice`},
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
	set := Target{Family: iounit.FamilyName, Decay: 0.4, Rounds: 3}
	if set.decay() != 0.4 || set.rounds() != 3 || (Target{MinSim: 0.7}).minSim() != 0.7 {
		t.Fatalf("set values not kept: %+v", set)
	}
}

// TestConfigValidate is the table of the one config check New, the
// service's admission and its recovery scan share: budgets and pools.
// A pool above sim.MaxWorkers used to reach sim.NewEnv, whose task
// queue (eight slots a worker) it overflowed with a makechan panic that
// took cdgd down from a campaign goroutine.
func TestConfigValidate(t *testing.T) {
	for _, tc := range []struct {
		name    string
		cfg     Config
		wantErr string // "" = valid
	}{
		{"zero", Config{}, ""},
		{"GOMAXPROCS workers", Config{Workers: -1, RunnerLanes: -1}, ""},
		{"widest pool", Config{Workers: sim.MaxWorkers, RunnerLanes: sim.MaxWorkers}, ""},
		{"negative budget", Config{OptSims: -5}, "budget OptSims -5 is negative"},
		{"workers above the bound", Config{Workers: sim.MaxWorkers + 1}, "pool Workers 1025 exceeds 1024"},
		{"workers that overflow the queue", Config{Workers: 1 << 40}, "pool Workers 1099511627776 exceeds 1024"},
		{"lanes above the bound", Config{RunnerLanes: 1 << 40}, "pool RunnerLanes 1099511627776 exceeds 1024"},
	} {
		err := tc.cfg.Validate()
		switch {
		case tc.wantErr == "" && err != nil:
			t.Errorf("%s: %v, want valid", tc.name, err)
		case tc.wantErr != "" && err == nil:
			t.Errorf("%s: valid, want %q", tc.name, tc.wantErr)
		case err != nil && !strings.HasPrefix(err.Error(), tc.wantErr):
			t.Errorf("%s: %q, want it to start with %q", tc.name, err, tc.wantErr)
		}
		if tc.wantErr == "" {
			continue
		}
		if f, err := New(iounit.New(), tc.cfg); err == nil || !strings.Contains(err.Error(), tc.wantErr) {
			if f != nil {
				f.Close()
			}
			t.Errorf("%s: New = %v, want %q", tc.name, err, tc.wantErr)
		}
	}
}
