package core

import (
	"context"
	"reflect"
	"testing"

	"repro/internal/duv/iounit"
	"repro/internal/duv/l3cache"
)

// reportFingerprint reduces a report to everything determinism must
// preserve: the harvested template, the optimizer trajectory, the exact
// per-event counts of every phase, and the simulation accounting.
type reportFingerprint struct {
	Best      string
	Weights   []float64
	Progress  []float64
	Phases    map[string][]uint64
	TotalSims uint64
}

func fingerprint(r *Report) reportFingerprint {
	fp := reportFingerprint{
		Best:      r.BestTemplate.String(),
		Weights:   r.BestWeights,
		Phases:    map[string][]uint64{},
		TotalSims: r.TotalSims,
	}
	for _, h := range r.Progress {
		fp.Progress = append(fp.Progress, h.Best)
	}
	for _, p := range r.Phases {
		hits := make([]uint64, 0, p.Counts.Len()+1)
		for i := 0; i < p.Counts.Len(); i++ {
			hits = append(hits, p.Counts.Hits(i))
		}
		fp.Phases[p.Name] = append(hits, p.Counts.Sims())
	}
	return fp
}

func runWithWorkers(t *testing.T, workers int) reportFingerprint {
	t.Helper()
	cfg := smallConfig(21)
	cfg.Workers = workers
	flow := NewFlow(iounit.New(), cfg)
	defer flow.Close()
	report, err := runOne(flow, Target{Family: iounit.FamilyName})
	if err != nil {
		t.Fatal(err)
	}
	return fingerprint(report)
}

func TestFlowBitIdenticalAcrossWorkerCounts(t *testing.T) {
	// The tentpole determinism guarantee: the sequential path (Workers 1),
	// the scheduler path, and the batch-objective path all produce the
	// same report bit for bit under a fixed seed, because batch seeds are
	// assigned at submission in caller order and instance seeds depend
	// only on (batch seed, index).
	one := runWithWorkers(t, 1)
	four := runWithWorkers(t, 4)
	nine := runWithWorkers(t, 9)
	if !reflect.DeepEqual(one, four) {
		t.Fatalf("workers 1 vs 4 diverged:\n%+v\n%+v", one, four)
	}
	if !reflect.DeepEqual(one, nine) {
		t.Fatalf("workers 1 vs 9 diverged:\n%+v\n%+v", one, nine)
	}
}

func TestPerEventSharedDeterministicAcrossWorkers(t *testing.T) {
	// The shared multi-target flow drives the batch objective hardest
	// (many optimizers over one env); it must be worker-count invariant
	// too.
	run := func(workers int) []reportFingerprint {
		cfg := smallConfig(31)
		cfg.Workers = workers
		flow := NewFlow(l3cache.New(), cfg)
		defer flow.Close()
		reports, err := flow.RunPerEventShared(context.Background(), l3cache.FamilyName, 0.5)
		if err != nil {
			t.Fatal(err)
		}
		out := make([]reportFingerprint, len(reports))
		for i, r := range reports {
			out[i] = fingerprint(r)
		}
		return out
	}
	a, b := run(1), run(4)
	if !reflect.DeepEqual(a, b) {
		t.Fatal("RunPerEventShared diverged across worker counts")
	}
}

func TestBatchObjectiveAccountsEverySimulation(t *testing.T) {
	// Every probe the batch objective runs must land in both the
	// optimization phase aggregate and the flow's total accounting.
	flow := NewFlow(iounit.New(), smallConfig(33))
	defer flow.Close()
	report, err := runOne(flow, Target{Family: iounit.FamilyName})
	if err != nil {
		t.Fatal(err)
	}
	opt := report.Phase("optimization")
	if opt == nil || opt.Counts.Sims() == 0 {
		t.Fatal("optimization phase has no merged counts")
	}
	// TotalSims covers sampling + optimization + best; the "before"
	// corpus is accounted separately (it may be shared across runs).
	var total uint64
	for _, p := range report.Phases {
		if p.Name != "before" {
			total += p.Counts.Sims()
		}
	}
	if report.TotalSims != total {
		t.Fatalf("TotalSims %d != sampling+optimization+best %d", report.TotalSims, total)
	}
}
