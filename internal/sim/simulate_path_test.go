package sim

import (
	"context"
	"strings"
	"testing"

	"repro/internal/coverage"
	"repro/internal/duv"
	_ "repro/internal/duv/ifu"
	_ "repro/internal/duv/l3cache"
	_ "repro/internal/duv/noc"
	"repro/internal/generator"
	"repro/internal/rng"
	"repro/internal/template"
)

// TestTemplateTheUnitCannotRunIsAnError: a parameter the unit does not
// declare, a symbolic value outside a parameter's vocabulary, a setting
// of the other type than the unit's default and a draw wider than the
// generator can make uniformly come back as errors from Submit, Run and
// RunChunkInto before any instance runs — at one worker and at several.
// The first used to run the unit's default in silence: a misspelled
// `weight Comand { crc: 1; }` biased nothing. The next two used to reach
// the model: `weight Command { bogus: 1; }` set event 0 (crc_004, a
// target-family event) in every iounit instance, `weight Channel
// { x: 1; }` indexed out of range in a scheduler worker.
func TestTemplateTheUnitCannotRunIsAnError(t *testing.T) {
	for _, tc := range []struct {
		unit, src, want string
	}{
		{"iounit", "weight Comand { crc: 1; }", `parameter "Comand": not one of the unit's parameters [BurstLen Channel Command Gap PayloadSize]`},
		{"ifu", "weight ThreadSelect { t0: 1; }", `parameter "ThreadSelect": not one of the unit's parameters [BranchMix DispatchStall FetchAddr RedirectRate ThreadSel]`},
		{"l3cache", "range Interarrival [0 : 9];", `parameter "Interarrival": not one of the unit's parameters [BypassHint InterArrival Locality ReqType ThreadSel]`},
		{"noc", "weight VcSel { vc0: 1; }", `parameter "VcSel": not one of the unit's parameters [HotspotPort InjectionRate PacketLen TrafficPattern VCSel]`},
		{"iounit", "weight Command { bogus: 1; }", `value "bogus" is not one of [dma_read dma_write crc interrupt nop]`},
		{"iounit", "weight Channel { x: 1; }", `value "x" is not one of [ch0 ch1 ch2 ch3]`},
		{"iounit", "weight BurstLen { long: 1; }", `value "long" overrides a numeric default`},
		{"ifu", "weight ThreadSel { t0: 1; t4: 1; }", `value "t4" is not one of [t0 t1 t2 t3]`},
		{"ifu", "range BranchMix [0 : 1];", "[0:1] overrides a symbolic default"},
		{"l3cache", "weight ReqType { read: 1; prefetch: 1; }", `value "prefetch" is not one of`},
		{"l3cache", "weight BypassHint { on: 1; [0:1]: 1; }", "[0:1] overrides a symbolic default"},
		{"noc", "weight VCSel { vc9: 1; }", `value "vc9" is not one of [vc0 vc1 vc2 vc3]`},
		{"noc", "weight HotspotPort { up: 1; }", `value "up" is not one of [n s e w l]`},
		// Draws wider than rng.Intn's 1<<32: the first used to panic a
		// worker (the total wraps negative), the others to skew silently.
		{"iounit", "weight Command { crc: 9223372036854775807; nop: 9223372036854775807; }", "total weight exceeds 1<<32"},
		{"iounit", "weight Command { crc: 1099511627776; nop: 1099511627776; }", "total weight exceeds 1<<32"},
		{"ifu", "range FetchAddr [0 : 4294967296];", "[0:4294967296] span exceeds 1<<32"},
	} {
		unit, err := duv.New(tc.unit)
		if err != nil {
			t.Fatal(err)
		}
		tmpl, err := template.Parse("template bad { " + tc.src + " }")
		if err != nil {
			t.Fatal(err)
		}
		for _, workers := range []int{1, 3} {
			env := NewEnv(unit, 5, workers)
			check := func(call string, err error) {
				t.Helper()
				if err == nil || !strings.Contains(err.Error(), tc.want) {
					t.Errorf("%s/%s, %d workers: %s = %v, want an error mentioning %q",
						tc.unit, tc.src, workers, call, err, tc.want)
				}
			}
			_, err := env.Submit(tmpl, 40)
			check("Submit", err)
			_, err = env.Run(tmpl, 40)
			check("Run", err)
			dst := coverage.NewCountsFor(unit.Model())
			check("RunChunkInto", env.RunChunkInto(tmpl, 9, 0, 8, dst))
			if env.Simulations() != 0 || env.Batches() != 0 || dst.Sims() != 0 {
				t.Errorf("%s/%s: a rejected template ran (sims %d, batches %d, chunk sims %d)",
					tc.unit, tc.src, env.Simulations(), env.Batches(), dst.Sims())
			}
			// The environment stays usable.
			if _, err := env.Run(unit.BaseTemplates()[0], 4); err != nil {
				t.Errorf("%s: good template after a bad one: %v", tc.unit, err)
			}
			env.Close()
		}
	}

	// Two templates of one body fail alike: each error names the
	// template that was submitted.
	unit, err := duv.New("iounit")
	if err != nil {
		t.Fatal(err)
	}
	env := NewEnv(unit, 5, 1)
	defer env.Close()
	for _, name := range []string{"first_name", "second_name"} {
		tmpl, err := template.Parse("template " + name + " { weight Command { bogus: 1; } }")
		if err != nil {
			t.Fatal(err)
		}
		_, err = env.Submit(tmpl, 4)
		if want := `template "` + name + `": generator: parameter "Command": value "bogus"`; err == nil || !strings.Contains(err.Error(), want) {
			t.Errorf("Submit of %s = %v, want an error mentioning %s", name, err, want)
		}
	}
}

// TestSimulatePathAllocations pins the allocation budget of the hot
// path: on the chunk path an instance allocates its coverage Vector and
// nothing else (one generator serves the chunk); a stand-alone
// Simulate(NewFromPlan(...)) adds the generator.
func TestSimulatePathAllocations(t *testing.T) {
	for _, name := range duv.Names() {
		unit, err := duv.New(name)
		if err != nil {
			t.Fatal(err)
		}
		tmpl := unit.BaseTemplates()[0]
		plan := generator.Compile(tmpl, unit.Defaults())
		seed := uint64(0)
		if n := testing.AllocsPerRun(20, func() {
			seed++
			unit.Simulate(generator.NewFromPlan(plan, seed))
		}); n > 2 {
			t.Errorf("%s: Simulate(NewFromPlan) allocates %v times, want <= 2", name, n)
		}

		const chunk = 64
		dst := coverage.NewCountsFor(unit.Model())
		batchSeed := rng.New(7)
		if n := testing.AllocsPerRun(5, func() {
			if err := simulateRange(context.Background(), unit, plan, batchSeed, 0, chunk, dst); err != nil {
				t.Fatal(err)
			}
		}); n > chunk+1 {
			t.Errorf("%s: a %d-instance chunk allocates %v times, want one Vector per instance and one generator",
				name, chunk, n)
		}
	}
}
