package sim

import (
	"fmt"
	"os"
	"testing"

	"repro/internal/duv/iounit"
	"repro/internal/obs"
)

// TestSchedulerObsMetrics drives concurrent jobs through an instrumented
// pool and checks every gauge and counter settles on the exact totals.
// Run under -race this also exercises the publication of the obs handles
// to the lazily started workers.
func TestSchedulerObsMetrics(t *testing.T) {
	const workers, jobs, batch = 4, 6, 96
	env := NewEnv(newToy(), 1, workers)
	defer env.Close()
	rec := obs.NewRecorder()
	env.SetRecorder(rec)

	handles := make([]*Job, jobs)
	for i := range handles {
		handles[i] = submit(t, env, modeB(t), batch)
	}
	total := uint64(0)
	for _, j := range handles {
		total += uint64(j.Wait().Sims())
	}
	if total != jobs*batch {
		t.Fatalf("sims = %d, want %d", total, jobs*batch)
	}

	snap := rec.Metrics.Snapshot()
	if got := snap.Counters["sim.jobs_submitted"]; got != jobs {
		t.Fatalf("jobs_submitted = %d, want %d", got, jobs)
	}
	if got := snap.Counters["sim.jobs_completed"]; got != jobs {
		t.Fatalf("jobs_completed = %d, want %d", got, jobs)
	}
	if got := snap.Counters["sim.instances_completed"]; got != jobs*batch {
		t.Fatalf("instances_completed = %d, want %d", got, jobs*batch)
	}
	if got := snap.Gauges["sim.queue_depth"]; got != 0 {
		t.Fatalf("queue_depth = %d, want 0 after all jobs drained", got)
	}
	if got := snap.Histograms["sim.batch_size"]; got.Count != jobs || got.Max != batch {
		t.Fatalf("batch_size histogram = %+v", got)
	}
	chunks := snap.Counters["sim.chunks_completed"]
	if chunks == 0 {
		t.Fatalf("no chunks recorded")
	}
	if cs := snap.Histograms["sim.chunk_size"]; cs.Count != chunks || cs.Sum != jobs*batch {
		t.Fatalf("chunk_size count %d, sum %d; want %d chunks of %d instances", cs.Count, cs.Sum, chunks, jobs*batch)
	}
	if hc := snap.Histograms["sim.chunk_ns"].Count; hc != chunks {
		t.Fatalf("chunk_ns count = %d, want %d", hc, chunks)
	}
	if hc := snap.Histograms["sim.sim_ns"].Count; hc != chunks {
		t.Fatalf("sim_ns count = %d, want %d", hc, chunks)
	}
	busyTotal := uint64(0)
	for w := 0; w < workers; w++ {
		busyTotal += snap.Counters[fmt.Sprintf("sim.worker.%02d.busy_ns", w)]
	}
	if busyTotal == 0 {
		t.Fatalf("no worker busy time recorded")
	}

	// Every chunk became one "sim"-category span on a worker lane.
	spans := 0
	for _, ev := range rec.Trace.Events() {
		if ev.Cat != "sim" || ev.Name != "chunk" {
			continue
		}
		spans++
		if ev.Tid < 100 || ev.Tid >= 100+workers {
			t.Fatalf("chunk span on unexpected lane %d", ev.Tid)
		}
	}
	if uint64(spans) != chunks {
		t.Fatalf("chunk spans = %d, want %d", spans, chunks)
	}
}

// TestSchedulerObsEquivalence checks instrumentation is purely
// observational: the aggregate is bit-identical with obs on or off, at 1
// and at many workers.
func TestSchedulerObsEquivalence(t *testing.T) {
	results := make([]*struct{ hits0, hits1, sims uint64 }, 0, 4)
	for _, workers := range []int{1, 4} {
		for _, instrument := range []bool{false, true} {
			env := NewEnv(newToy(), 42, workers)
			if instrument {
				env.SetRecorder(obs.NewRecorder())
			}
			c := run(t, env, modeB(t), 200)
			env.Close()
			results = append(results, &struct{ hits0, hits1, sims uint64 }{
				c.Hits(0), c.Hits(1), c.Sims(),
			})
		}
	}
	first := results[0]
	for i, r := range results[1:] {
		if *r != *first {
			t.Fatalf("variant %d diverged: %+v vs %+v", i+1, r, first)
		}
	}
}

// TestObservabilityOverheadGuard is the CI benchmark guard: with metrics
// and tracing enabled, scheduler throughput must stay within 5% of the
// uninstrumented pool. Gated behind BENCH_GUARD=1 because wall-clock
// comparisons are meaningless on noisy shared runners unless invoked
// deliberately.
func TestObservabilityOverheadGuard(t *testing.T) {
	if os.Getenv("BENCH_GUARD") == "" {
		t.Skip("set BENCH_GUARD=1 to run the observability overhead guard")
	}
	unit := iounit.New()
	tmpl := unit.BaseTemplates()[0]
	const batch = 2048
	measure := func(rec *obs.Recorder) float64 {
		best := 0.0
		for trial := 0; trial < 3; trial++ {
			env := NewEnv(unit, 1, 4)
			env.SetRecorder(rec)
			res := testing.Benchmark(func(b *testing.B) {
				for i := 0; i < b.N; i++ {
					job, err := env.Submit(tmpl, batch)
					if err != nil {
						b.Fatal(err)
					}
					_ = job.Wait()
				}
			})
			env.Close()
			perSim := float64(res.NsPerOp()) / batch
			if best == 0 || perSim < best {
				best = perSim
			}
		}
		return best
	}
	off := measure(nil)
	on := measure(obs.NewRecorder())
	overhead := on/off - 1
	t.Logf("scheduler throughput: obs off %.1f ns/sim, on %.1f ns/sim, overhead %.2f%%",
		off, on, overhead*100)
	if overhead > 0.05 {
		t.Fatalf("observability overhead %.2f%% exceeds the 5%% budget", overhead*100)
	}
}
