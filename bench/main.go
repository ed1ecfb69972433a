// Command bench is the repository's benchmark: five fixed-work campaign
// workloads with steal-corrected timings, the per-layer probes under
// them, and one traced campaign per workload. See README.md.
//
//	bash bench/run.sh                              every workload, each in a fresh process
//	bash bench/run.sh -workload fig3-local         one workload, end-to-end metrics
//	bash bench/run.sh -workload fig3-local -trace 1  its per-layer metrics and trace
//	bash bench/run.sh -aa 5                        the A/A repeatability table
package main

import (
	"context"
	"encoding/json"
	"flag"
	"fmt"
	"io"
	"math"
	"os"
	"os/exec"
	"os/signal"
	"path/filepath"
	"runtime"
	"strings"
	"syscall"
)

// metricDef names one metric of BENCHMARK.json.
type metricDef struct {
	name, unit, better string
	bound              float64 // end-to-end metrics only
}

// endToEnd is what a user of the system sees; every workload emits all
// of them with -trace 0.
var endToEnd = []metricDef{
	{"setup_s", "s", "lower", 0.25},
	{"campaign_wall_s", "s", "lower", 0.15},
	{"campaign_cpu_s", "s", "lower", 0.15},
	{"sims_per_s", "1/s", "higher", 0.15},
	{"sims_per_campaign", "count", "lower", 0.001},
	{"sims_to_first_hit", "count", "lower", 0.001},
	{"best_target_value", "value", "higher", 0.001},
	{"peak_rss_mb", "MB", "lower", 0.15},
}

// perLayer is what the probes and the traced campaign give; every
// workload emits all of them with -trace 1. The first group comes from
// the workload's own campaigns, the rest from probes that are the same
// for every workload.
var perLayer = []metricDef{
	{name: "core.share.corpus", unit: "ratio", better: "lower"},
	{name: "core.share.tac", unit: "ratio", better: "lower"},
	{name: "core.share.skeleton", unit: "ratio", better: "lower"},
	{name: "core.share.sample", unit: "ratio", better: "lower"},
	{name: "core.share.optimize", unit: "ratio", better: "lower"},
	{name: "core.share.harvest", unit: "ratio", better: "lower"},
	{name: "opt.engine_share", unit: "ratio", better: "lower"},
	{name: "farm.remote_share", unit: "ratio", better: "higher"},
	{name: "farm.cpu_overhead", unit: "ratio", better: "lower"},
	{name: "trace.overhead", unit: "ratio", better: "lower"},
	{name: "obs.recorder_overhead", unit: "ratio", better: "lower"},
	{name: "raw.campaign_wall_s", unit: "s", better: "lower"},
	{name: "raw.warmup_campaign_wall_s", unit: "s", better: "lower"},
	{name: "raw.steal_frac", unit: "ratio", better: "lower"},
	{name: "raw.work_rate", unit: "ratio", better: "lower"},
	{name: "quality.target_hit_prob", unit: "ratio", better: "higher"},

	{name: "duv.iounit.sim_us", unit: "us", better: "lower"},
	{name: "duv.l3cache.sim_us", unit: "us", better: "lower"},
	{name: "duv.ifu.sim_us", unit: "us", better: "lower"},
	{name: "duv.iounit.sim_allocs", unit: "count", better: "lower"},
	{name: "generator.compile_us", unit: "us", better: "lower"},
	{name: "generator.decision_ns", unit: "ns", better: "lower"},
	{name: "coverage.counts_add_ns", unit: "ns", better: "lower"},
	{name: "coverage.counts_merge_ns", unit: "ns", better: "lower"},
	{name: "sim.run_us_per_sim.w1", unit: "us", better: "lower"},
	{name: "sim.run_us_per_sim.w2", unit: "us", better: "lower"},
	{name: "sim.sched_overhead_us_per_sim", unit: "us", better: "lower"},
	{name: "sim.parallel_eff", unit: "ratio", better: "higher"},
	{name: "sim.handoff_us", unit: "us", better: "lower"},
	{name: "farm.chunk_rtt_us.pipe", unit: "us", better: "lower"},
	{name: "farm.chunk_rtt_us.tcp", unit: "us", better: "lower"},
	{name: "farm.remote_us_per_sim", unit: "us", better: "lower"},
	{name: "opt.if.run_ms", unit: "ms", better: "lower"},
	{name: "opt.bayes.run_ms", unit: "ms", better: "lower"},
	{name: "opt.bayes.last_propose_ms", unit: "ms", better: "lower"},
	{name: "journal.append_us.tmpfs", unit: "us", better: "lower"},
	{name: "journal.append_us.disk", unit: "us", better: "lower"},
	{name: "journal.recover_us_per_record", unit: "us", better: "lower"},
	{name: "journal.appends_per_campaign", unit: "count", better: "lower"},
	{name: "journal.bytes_per_campaign", unit: "count", better: "lower"},
	{name: "lease.acquire_release_us", unit: "us", better: "lower"},
	{name: "atomicfile.write_us", unit: "us", better: "lower"},
	{name: "knowledge.add_us", unit: "us", better: "lower"},
	{name: "knowledge.load_us", unit: "us", better: "lower"},
	{name: "svc.submit_us", unit: "us", better: "lower"},
	{name: "svc.queue_wait_ms", unit: "ms", better: "lower"},
	{name: "svc.run_ms", unit: "ms", better: "lower"},
	{name: "svc.submit_to_done_p90_ms", unit: "ms", better: "lower"},
	{name: "svc.campaigns_per_s", unit: "1/s", better: "higher"},
	{name: "svc.tax", unit: "ratio", better: "lower"},
	{name: "template.parse_us", unit: "us", better: "lower"},
	{name: "skeleton.skeletonize_us", unit: "us", better: "lower"},
	{name: "skeleton.instantiate_us", unit: "us", better: "lower"},
	{name: "tac.best_templates_us", unit: "us", better: "lower"},
	{name: "neighbors.ordinal_us", unit: "us", better: "lower"},
	{name: "neighbors.cross_us", unit: "us", better: "lower"},
	{name: "neighbors.score_ns", unit: "ns", better: "lower"},
}

// resultLine is the last line a workload run prints: the contract the
// driver reads.
type resultLine struct {
	Correct   bool                   `json:"correct"`
	Attempted int                    `json:"attempted"`
	Failed    int                    `json:"failed"`
	Metrics   map[string]metricValue `json:"metrics"`
}

type metricValue struct {
	Value float64 `json:"value"`
	Unit  string  `json:"unit"`
}

func main() {
	os.Exit(run(os.Args[1:], os.Stdout, os.Stderr))
}

// run is main with its streams and exit code as values, so the smoke
// test can call it in-process.
func run(args []string, stdout, stderr io.Writer) int {
	fl := flag.NewFlagSet("bench", flag.ContinueOnError)
	fl.SetOutput(stderr)
	var (
		name     = fl.String("workload", "", "run one workload in this process (default: all five, each in a child process)")
		seed     = fl.Uint64("seed", 1, "permutes the order of the campaign panel")
		seconds  = fl.Int("seconds", baseSeconds, "run length the repetition counts are scaled to")
		trace    = fl.Int("trace", 0, "0: end-to-end metrics, tracing off; 1: per-layer metrics from probes and one traced campaign")
		traceDir = fl.String("trace-dir", ".bench_build/trace", "where -trace 1 writes <workload>.trace.json")
		aa       = fl.Int("aa", 0, "A/A mode: run the whole benchmark 2N times into alternating sets and compare them")
		describe = fl.Bool("describe", false, "print BENCHMARK.json as the tables in this program define it, and exit")
		smoke    = fl.Bool("smoke", false, "tiny sizes, for the smoke test")
		inject   = fl.Bool("inject-mismatch", false, "corrupt one expected digest (smoke test)")
	)
	if err := fl.Parse(args); err != nil {
		return 2
	}
	if fl.NArg() > 0 || *seconds < 1 || *trace < 0 || *trace > 1 {
		fmt.Fprintln(stderr, "bench: bad arguments; see -h")
		return 2
	}
	if *describe {
		stdout.Write(benchmarkJSON())
		return 0
	}
	cfg := runConfig{seed: *seed, seconds: *seconds, trace: *trace == 1, traceDir: *traceDir,
		smoke: *smoke, injectMismatch: *inject, out: stdout}

	// Temp data roots go on every exit path, signals included. A run that
	// spawns workload processes hands the signal on to the running child
	// and unwinds through its error; a workload run cleans up and exits.
	defer removeScratch()
	ctx, cancel := context.WithCancel(context.Background())
	defer cancel()
	cfg.ctx = ctx
	spawns := *aa > 0 || *name == ""
	sig := make(chan os.Signal, 1)
	signal.Notify(sig, os.Interrupt, syscall.SIGTERM)
	defer signal.Stop(sig)
	go func() {
		select {
		case <-sig:
			cancel()
			if !spawns {
				removeScratch()
				os.Exit(130)
			}
		case <-ctx.Done():
		}
	}()

	switch {
	case *aa > 0:
		return runAA(*aa, cfg, stdout, stderr)
	case *name == "":
		return runAll(cfg, stdout, stderr)
	}
	w, ok := findWorkload(*name)
	if !ok {
		fmt.Fprintf(stderr, "bench: unknown workload %q\n", *name)
		return 2
	}
	printEnvironment(stdout)
	fmt.Fprintf(stdout, "workload %s (seed %d, sized for %d s): %s\n", w.name, cfg.seed, cfg.seconds, w.why)
	res, err := runWorkload(w, cfg)
	if err != nil {
		fmt.Fprintf(stderr, "bench: %s: %v\n", w.name, err)
		return 1
	}
	defs := endToEnd
	if cfg.trace {
		defs = perLayer
	}
	line := resultLine{Correct: res.failed == 0, Attempted: res.attempted, Failed: res.failed,
		Metrics: map[string]metricValue{}}
	fmt.Fprintf(stdout, "\n%-34s %22s %-6s %s\n", "metric", "value", "unit", "samples")
	for _, d := range defs {
		s, ok := res.metrics[d.name]
		if !ok || math.IsNaN(s.value) || math.IsInf(s.value, 0) {
			fmt.Fprintf(stderr, "bench: %s: metric %s was not measured\n", w.name, d.name)
			return 1
		}
		fmt.Fprintf(stdout, "%-34s %22s %-6s n=%d\n", d.name, formatValue(s.value), d.unit, s.n)
		line.Metrics[d.name] = metricValue{s.value, d.unit}
	}
	fmt.Fprintf(stdout, "report_digest %s\noperations attempted %d, failed %d\n", res.digest, res.attempted, res.failed)
	out, err := json.Marshal(line)
	if err != nil {
		fmt.Fprintf(stderr, "bench: %v\n", err)
		return 1
	}
	fmt.Fprintf(stdout, "%s\n", out)
	if res.failed > 0 {
		return 1
	}
	return 0
}

// benchmarkJSON renders the repository's BENCHMARK.json from the
// workload and metric tables, so the file and the program cannot drift
// (the smoke test compares them).
func benchmarkJSON() []byte {
	type workloadJSON struct {
		Name string `json:"name"`
		Why  string `json:"why"`
	}
	type boundedJSON struct {
		Name   string  `json:"name"`
		Unit   string  `json:"unit"`
		Better string  `json:"better"`
		Bound  float64 `json:"bound"`
	}
	type layerJSON struct {
		Name   string `json:"name"`
		Unit   string `json:"unit"`
		Better string `json:"better"`
	}
	doc := struct {
		Command    []string       `json:"command"`
		Paths      []string       `json:"paths"`
		RunSeconds int            `json:"run_seconds"`
		Workloads  []workloadJSON `json:"workloads"`
		EndToEnd   []boundedJSON  `json:"end_to_end"`
		PerLayer   []layerJSON    `json:"per_layer"`
	}{Command: []string{"bash", "bench/run.sh"}, Paths: []string{"bench"}, RunSeconds: baseSeconds}
	for _, w := range workloads {
		doc.Workloads = append(doc.Workloads, workloadJSON{w.name, w.why})
	}
	for _, d := range endToEnd {
		doc.EndToEnd = append(doc.EndToEnd, boundedJSON{d.name, d.unit, d.better, d.bound})
	}
	for _, d := range perLayer {
		doc.PerLayer = append(doc.PerLayer, layerJSON{d.name, d.unit, d.better})
	}
	out, err := json.MarshalIndent(doc, "", "  ")
	if err != nil {
		panic(err) // the tables are static: only a bug can make them unmarshalable
	}
	return append(out, '\n')
}

// formatValue prints a measurement with all its digits.
func formatValue(v float64) string { return fmt.Sprintf("%.17g", v) }

// printEnvironment records what the numbers were measured on.
func printEnvironment(w io.Writer) {
	kernel := "unknown"
	var un syscall.Utsname
	if syscall.Uname(&un) == nil {
		b := make([]byte, 0, len(un.Release))
		for _, c := range un.Release {
			if c == 0 {
				break
			}
			b = append(b, byte(c))
		}
		kernel = string(b)
	}
	rootFS := "unavailable"
	if root, err := dataRoot(); err == nil {
		rootFS = fmt.Sprintf("%s (%s)", fsType(root), filepath.Dir(root))
		os.RemoveAll(root)
	}
	_, steal := procStatSteal()
	fmt.Fprintf(w, "environment: %s %s/%s, nproc %d, GOMAXPROCS %d, kernel %s, data root %s, /proc/stat steal reported: %v\n",
		runtime.Version(), runtime.GOOS, runtime.GOARCH, runtime.NumCPU(), runtime.GOMAXPROCS(0), kernel, rootFS, steal)
}

// childRun runs one workload in a fresh process of this binary and
// returns the result line it printed last.
func childRun(w workload, cfg runConfig, trace int, echo io.Writer) (*resultLine, error) {
	self, err := os.Executable()
	if err != nil {
		return nil, err
	}
	args := []string{"-workload", w.name, "-seed", fmt.Sprint(cfg.seed), "-seconds", fmt.Sprint(cfg.seconds),
		"-trace", fmt.Sprint(trace), "-trace-dir", cfg.traceDir}
	if cfg.smoke {
		args = append(args, "-smoke")
	}
	cmd := exec.CommandContext(cfg.ctx, self, args...)
	cmd.Cancel = func() error { return cmd.Process.Signal(syscall.SIGTERM) } // lets the child remove its data root
	cmd.Stderr = os.Stderr
	out, err := cmd.Output()
	if echo != nil {
		echo.Write(out)
	}
	lines := strings.Split(strings.TrimSpace(string(out)), "\n")
	var line resultLine
	if jerr := json.Unmarshal([]byte(lines[len(lines)-1]), &line); jerr != nil {
		if err != nil {
			return nil, fmt.Errorf("%s: %w", w.name, err)
		}
		return nil, fmt.Errorf("%s: no result line: %w", w.name, jerr)
	}
	return &line, nil
}

// runAll is the default command: every workload, end to end and then
// per layer, each run in a fresh child process.
func runAll(cfg runConfig, stdout, stderr io.Writer) int {
	failed := 0
	for _, w := range workloads {
		for trace := 0; trace <= 1; trace++ {
			fmt.Fprintf(stdout, "\n=== %s, -trace %d ===\n", w.name, trace)
			line, err := childRun(w, cfg, trace, stdout)
			if cfg.ctx.Err() != nil {
				fmt.Fprintln(stderr, "bench: interrupted")
				return 130
			}
			if err != nil {
				fmt.Fprintf(stderr, "bench: %v\n", err)
				failed++
			} else if !line.Correct {
				failed += line.Failed
			}
		}
	}
	if failed > 0 {
		fmt.Fprintf(stderr, "bench: %d failed operations or runs\n", failed)
		return 1
	}
	return 0
}
