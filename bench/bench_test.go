package main

import (
	"bytes"
	"encoding/json"
	"math"
	"os"
	"path/filepath"
	"regexp"
	"strings"
	"testing"
)

// inScratchDir runs the test from a temp directory, so that what the
// benchmark writes relative to its working directory (.bench_build/)
// does not land in the source tree.
func inScratchDir(t *testing.T) {
	t.Helper()
	old, err := os.Getwd()
	if err != nil {
		t.Fatal(err)
	}
	if err := os.Chdir(t.TempDir()); err != nil {
		t.Fatal(err)
	}
	t.Cleanup(func() { os.Chdir(old) })
}

// smokeRun runs the command in-process at -smoke sizes and returns its
// exit code, its result line and the digest it printed.
func smokeRun(t *testing.T, args ...string) (int, resultLine, string) {
	t.Helper()
	var stdout, stderr bytes.Buffer
	code := run(append([]string{"-smoke"}, args...), &stdout, &stderr)
	lines := strings.Split(strings.TrimSpace(stdout.String()), "\n")
	var line resultLine
	if err := json.Unmarshal([]byte(lines[len(lines)-1]), &line); err != nil {
		t.Fatalf("bench %v: exit %d, no result line: %v\nstdout:\n%s\nstderr:\n%s", args, code, err, &stdout, &stderr)
	}
	digest := ""
	for _, l := range lines {
		if rest, ok := strings.CutPrefix(l, "report_digest "); ok {
			digest = rest
		}
	}
	return code, line, digest
}

func TestBenchmarkJSONIsGenerated(t *testing.T) {
	committed, err := os.ReadFile(filepath.Join("..", "BENCHMARK.json"))
	if err != nil {
		t.Fatal(err)
	}
	if !bytes.Equal(committed, benchmarkJSON()) {
		t.Fatal("BENCHMARK.json differs from the program's tables; regenerate it with: bash bench/run.sh -describe > BENCHMARK.json")
	}
	name := regexp.MustCompile(`^[A-Za-z0-9][A-Za-z0-9_.-]{0,63}$`)
	seen := map[string]bool{}
	check := func(n string) {
		if !name.MatchString(n) {
			t.Errorf("name %q is outside the contract's alphabet", n)
		}
		if seen[n] {
			t.Errorf("name %q is used twice", n)
		}
		seen[n] = true
	}
	for _, w := range workloads {
		check(w.name)
		if len(w.why) > 200 || strings.Contains(w.why, "\n") {
			t.Errorf("workload %s: why must be one line of at most 200 characters", w.name)
		}
	}
	for _, d := range append(append([]metricDef(nil), endToEnd...), perLayer...) {
		check(d.name)
	}
}

// TestSmoke runs every workload end to end and per layer at smoke sizes.
func TestSmoke(t *testing.T) {
	inScratchDir(t)
	exact := []string{"sims_per_campaign", "sims_to_first_hit", "best_target_value"}
	timeUnits := map[string]bool{"s": true, "ms": true, "us": true, "ns": true, "1/s": true}
	digests := map[string]string{}
	for _, w := range workloads {
		code, first, digest := smokeRun(t, "-workload", w.name, "-seed", "1")
		if code != 0 || !first.Correct || first.Failed != 0 || first.Attempted < 1 {
			t.Fatalf("%s: exit %d, result %+v", w.name, code, first)
		}
		digests[w.name] = digest
		for _, d := range endToEnd {
			m, ok := first.Metrics[d.name]
			if !ok || m.Unit != d.unit || !(m.Value > 0) || math.IsInf(m.Value, 0) {
				t.Errorf("%s: end-to-end metric %s = %+v, want a positive finite %s", w.name, d.name, m, d.unit)
			}
		}
		if len(first.Metrics) != len(endToEnd) {
			t.Errorf("%s: %d metrics with -trace 0, want %d", w.name, len(first.Metrics), len(endToEnd))
		}

		// The work of a run does not depend on -seed: the same panel in
		// another order gives the same exact metrics and the same reports.
		_, again, digestAgain := smokeRun(t, "-workload", w.name, "-seed", "1")
		_, other, digestOther := smokeRun(t, "-workload", w.name, "-seed", "2")
		for _, name := range exact {
			if a, b, c := first.Metrics[name].Value, again.Metrics[name].Value, other.Metrics[name].Value; a != b || a != c {
				t.Errorf("%s: %s = %v, %v (same seed), %v (seed 2): want all equal", w.name, name, a, b, c)
			}
		}
		if digest == "" || digest != digestAgain || digest != digestOther {
			t.Errorf("%s: report digests %q, %q, %q: want all equal", w.name, digest, digestAgain, digestOther)
		}

		traceDir := filepath.Join(t.TempDir(), "trace")
		code, layers, _ := smokeRun(t, "-workload", w.name, "-trace", "1", "-trace-dir", traceDir)
		if code != 0 || !layers.Correct {
			t.Fatalf("%s -trace 1: exit %d, result %+v", w.name, code, layers)
		}
		var shares float64
		for _, d := range perLayer {
			m, ok := layers.Metrics[d.name]
			if !ok || m.Unit != d.unit || math.IsNaN(m.Value) || math.IsInf(m.Value, 0) {
				t.Errorf("%s: per-layer metric %s = %+v, want a finite %s", w.name, d.name, m, d.unit)
			}
			// Differences of two timings (chunk round trip minus a sim,
			// scheduler overhead) can dip below zero at smoke sizes.
			derived := strings.HasPrefix(d.name, "farm.chunk_rtt_us") || d.name == "sim.sched_overhead_us_per_sim"
			if timeUnits[d.unit] && !derived && !(m.Value > 0) {
				t.Errorf("%s: per-layer timing %s = %v, want > 0", w.name, d.name, m.Value)
			}
			if strings.HasPrefix(d.name, "core.share.") {
				shares += m.Value
			}
		}
		if len(layers.Metrics) != len(perLayer) {
			t.Errorf("%s: %d metrics with -trace 1, want %d", w.name, len(layers.Metrics), len(perLayer))
		}
		if math.Abs(shares-1) > 0.05 {
			t.Errorf("%s: core.share.* sums to %.3f, want 1", w.name, shares)
		}
		checkTrace(t, filepath.Join(traceDir, w.name+".trace.json"))
	}
	if digests["fig3-farm"] != digests["fig3-local"] {
		t.Errorf("fig3-farm digest %s differs from fig3-local's %s", digests["fig3-farm"], digests["fig3-local"])
	}
}

// checkTrace verifies the trace file holds spans whose parent links
// resolve within the file.
func checkTrace(t *testing.T, path string) {
	t.Helper()
	data, err := os.ReadFile(path)
	if err != nil {
		t.Fatal(err)
	}
	var events []struct {
		Name string  `json:"name"`
		Ph   string  `json:"ph"`
		Dur  float64 `json:"dur"`
		Args struct {
			ID, Parent int
			Campaign   string
		} `json:"args"`
	}
	if err := json.Unmarshal(data, &events); err != nil {
		t.Fatalf("%s: %v", path, err)
	}
	ids := map[int]bool{}
	for _, e := range events {
		ids[e.Args.ID] = true
	}
	children := 0
	for _, e := range events {
		if e.Ph != "X" || e.Name == "" || e.Dur < 0 {
			t.Errorf("%s: malformed event %+v", path, e)
		}
		if e.Args.Parent != 0 {
			children++
			if !ids[e.Args.Parent] {
				t.Errorf("%s: span %d (%s) names parent %d, which is not in the file", path, e.Args.ID, e.Name, e.Args.Parent)
			}
		}
	}
	if children == 0 {
		t.Errorf("%s: no parent-linked spans among %d events", path, len(events))
	}
}

// TestInjectedMismatch proves a digest mismatch is a failed operation
// and a failed command, never a silently dropped sample.
func TestInjectedMismatch(t *testing.T) {
	inScratchDir(t)
	for _, name := range []string{"fig3-local", "fig3-farm", "svc-churn"} {
		code, line, _ := smokeRun(t, "-workload", name, "-inject-mismatch")
		if code == 0 || line.Correct || line.Failed < 1 {
			t.Errorf("%s with an injected mismatch: exit %d, result %+v; want a failed operation and a non-zero exit", name, code, line)
		}
	}
}

func TestPanelOrderPermutesAFixedPanel(t *testing.T) {
	a, b := panelOrder(12, 1), panelOrder(12, 2)
	if len(a) != 12 || len(b) != 12 {
		t.Fatalf("panel sizes %d, %d", len(a), len(b))
	}
	same := true
	seen := map[uint64]int{}
	for i := range a {
		seen[a[i]]++
		seen[b[i]] += 10
		same = same && a[i] == b[i]
	}
	for s := uint64(1); s <= 12; s++ {
		if seen[s] != 11 {
			t.Errorf("campaign seed %d: not once in each order (%d)", s, seen[s])
		}
	}
	if same {
		t.Error("seeds 1 and 2 give the same order")
	}
}

func TestStealCorrected(t *testing.T) {
	// Two threads busy for the whole second, 0.2 s of steal summed over
	// both vCPUs: a tenth of a second of wall was lost.
	if got := stealCorrected(1, 1.8, 0.2); math.Abs(got-0.9) > 1e-12 {
		t.Errorf("stealCorrected(1, 1.8, 0.2) = %v, want 0.9", got)
	}
	// One thread: the steal it saw is all wall.
	if got := stealCorrected(1, 0.5, 0.2); math.Abs(got-0.8) > 1e-12 {
		t.Errorf("stealCorrected(1, 0.5, 0.2) = %v, want 0.8", got)
	}
	if got := stealCorrected(1, 1, 0); got != 1 {
		t.Errorf("no steal: %v, want 1", got)
	}
}

func TestQuartileSpreadMatchesPython(t *testing.T) {
	// statistics.quantiles(xs, n=4) gives [2.725, 4.8, 7.675]; median 4.8.
	xs := []float64{1.2, 3.4, 2.2, 5.5, 4.1, 9.0, 7.3, 6.6, 2.9, 8.8}
	if got := quartileSpread(xs); math.Abs(got-1.03125) > 1e-12 {
		t.Errorf("quartileSpread = %v, want 1.03125", got)
	}
}
