package main

import (
	"context"
	"crypto/sha256"
	"encoding/hex"
	"errors"
	"fmt"
	"io"
	"math"
	"math/rand"
	"os"
	"path/filepath"
	"runtime"
	"strings"
	"sync"
	"syscall"
	"time"
)

// baseSeconds is the run length the repetition counts below are sized
// for; -seconds scales them linearly. The work of a run is fixed by its
// flags, never by a clock.
const baseSeconds = 12

// workload is one named set of inputs. Figure workloads run a panel of
// campaigns with campaign seeds 1..timed; svc-churn runs waves of one
// fixed campaign list. -seed permutes the order in which a run goes
// through its panel (and each wave through its list): the work summed
// over a run, and so every metric, is the same for every -seed.
type workload struct {
	name, why  string
	spec       func(smoke bool) (flowSpec, error)
	farm       bool // one remote lane to an in-process farm worker over TCP
	svc        bool // campaigns go through the service's HTTP API
	timed      int  // timed campaigns (waves for svc) at baseSeconds
	traceTimed int  // untraced timed campaigns (waves) of a -trace 1 run
}

// smokeSpec is a campaign small enough for the in-process smoke test.
func smokeSpec(unit, family, cross, engine string, rounds, workers int) flowSpec {
	return flowSpec{unit: unit, family: family, cross: cross, engine: engine, decay: 0.4, rounds: rounds,
		workers: workers, corpus: 40, top: 2, subranges: 4, samples: 6, sampleSims: 10,
		iters: 2, dirs: 3, optSims: 10, bestSims: 40}
}

func figureWorkloadSpec(figure string, scale float64, rounds, workers int, engine string) func(bool) (flowSpec, error) {
	return func(smoke bool) (flowSpec, error) {
		fs, err := figureSpec(figure, scale, rounds, workers, engine)
		if err != nil || !smoke {
			return fs, err
		}
		return smokeSpec(fs.unit, fs.family, fs.cross, engine, rounds, workers), nil
	}
}

var workloads = []workload{
	{
		name: "fig3-local",
		why:  "I/O unit at ~30 us/sim: generator, scheduler hand-off and Counts merge carry their largest share",
		spec: figureWorkloadSpec("fig3", 0.02, 2, 2, ""), timed: 8, traceTimed: 3,
	},
	{
		name: "fig5-local",
		why:  "IFU at ~250 us/sim on a 256-event cross: the DUV step dominates, scheduler or codec work should not show",
		spec: figureWorkloadSpec("fig5", 0.01, 1, 2, ""), timed: 2, traceTimed: 1,
	},
	{
		name: "fig4-bayes",
		why:  "GP engine on the L3 family: the only workload where the opt layer is a material share of campaign CPU",
		spec: figureWorkloadSpec("fig4", 0.005, 1, 2, "bayes"), timed: 3, traceTimed: 1,
	},
	{
		name: "fig3-farm",
		why:  "fig3-local with one local worker and one remote lane over TCP: about half the chunks cross codec, dispatcher and socket",
		spec: figureWorkloadSpec("fig3", 0.02, 2, 1, ""), farm: true, timed: 8, traceTimed: 3,
	},
	{
		name: "svc-churn",
		why:  "980-sim campaigns through the HTTP service: submit, lease, journal, state and report writes carry a large share; the only workload that writes",
		spec: func(smoke bool) (flowSpec, error) {
			fs := flowSpec{unit: "iounit", family: "crc_fifo", decay: 0.4, rounds: 1, workers: 1,
				corpus: 50, top: 2, subranges: 4, samples: 10, sampleSims: 20,
				iters: 3, dirs: 5, optSims: 20, bestSims: 100}
			if smoke {
				fs.corpus, fs.samples, fs.sampleSims, fs.optSims, fs.bestSims = 20, 4, 10, 10, 20
			}
			return fs, nil
		},
		svc: true, timed: 16, traceTimed: 4,
	},
}

func findWorkload(name string) (workload, bool) {
	for _, w := range workloads {
		if w.name == name {
			return w, true
		}
	}
	return workload{}, false
}

// Sizes of an svc-churn wave: waveCampaigns submissions cycling through
// svcSeeds campaign seeds, tenants a and b alternating, svcClients
// closed-loop keep-alive clients.
const (
	waveCampaigns = 32
	svcSeeds      = 8
	svcClients    = 2
)

// runConfig is what the flags select.
type runConfig struct {
	seed     uint64
	seconds  int
	trace    bool
	traceDir string
	smoke    bool
	// injectMismatch corrupts the expected digest of the first campaign,
	// so the smoke test can see a mismatch counted as a failed operation.
	injectMismatch bool
	out            io.Writer       // the human-readable report
	ctx            context.Context // cancelled by a signal; stops child processes
}

// count scales a repetition count sized for baseSeconds.
func (c runConfig) count(base int) int {
	if c.smoke {
		return 2
	}
	n := int(math.Round(float64(base) * float64(c.seconds) / baseSeconds))
	if n < 1 {
		n = 1
	}
	return n
}

// refSlices is how many reference slices go into each of the gaps
// around n timed items, so that an end-to-end run collects at least 20
// (two seconds of reference, which pin the work rate to about 1.5 %). A
// traced run also takes slices beside its probes, and its timings are
// not gated: one or two per gap do.
func (c runConfig) refSlices(n int) int {
	switch {
	case c.smoke:
		return 1
	case c.trace:
		return (6 + n) / (n + 1)
	}
	return (20 + n) / (n + 1)
}

func (c runConfig) waveSize() int {
	if c.smoke {
		return svcSeeds
	}
	return waveCampaigns
}

// sample is a metric value with the number of observations behind it.
type sample struct {
	value float64
	n     int
}

// runResult is the outcome of one workload run.
type runResult struct {
	attempted, failed int
	metrics           map[string]sample
	digest            string   // of the panel: every campaign's report digest, in panel order
	rate              workRate // reference slices interleaved with everything the run timed
}

func (r *runResult) set(name string, v float64, n int) { r.metrics[name] = sample{v, n} }

// fail counts a failed operation and says why.
func (r *runResult) fail(out io.Writer, format string, args ...any) {
	r.failed++
	fmt.Fprintf(out, "FAILED operation: "+format+"\n", args...)
}

// scratch directories: every temp data root is registered here so that
// all exit paths, signals included, remove them.
var scratch struct {
	mu   sync.Mutex
	dirs []string
}

func removeScratch() {
	scratch.mu.Lock()
	defer scratch.mu.Unlock()
	for _, d := range scratch.dirs {
		os.RemoveAll(d)
	}
	scratch.dirs = nil
}

// dataRoot creates a fresh directory for durable files. Journals fsync
// on every append and this sandbox's disk cannot be timed within the
// bounds (see README), so the root is a tmpfs: the checkout itself when
// it is one, else /dev/shm, else the system temp directory.
func dataRoot() (string, error) {
	bases := []string{"/dev/shm", os.TempDir()}
	if fsType(".") == "tmpfs" && os.MkdirAll(".bench_build", 0o755) == nil {
		bases = append([]string{".bench_build"}, bases...)
	}
	var firstErr error
	for _, base := range bases {
		dir, err := tempDir(base, "ascdg-bench-")
		if err == nil {
			return dir, nil
		}
		if firstErr == nil {
			firstErr = err
		}
	}
	return "", fmt.Errorf("no writable data root: %w", firstErr)
}

// tempDir makes a directory that removeScratch deletes.
func tempDir(base, pattern string) (string, error) {
	dir, err := os.MkdirTemp(base, pattern)
	if err != nil {
		return "", err
	}
	scratch.mu.Lock()
	scratch.dirs = append(scratch.dirs, dir)
	scratch.mu.Unlock()
	return dir, nil
}

// diskDir is a directory on the checkout's own filesystem, for the one
// probe that wants a real fsync.
func diskDir() (string, error) {
	if err := os.MkdirAll(".bench_build", 0o755); err != nil {
		return "", err
	}
	return tempDir(".bench_build", "disk-probe-")
}

func fsType(path string) string {
	var st syscall.Statfs_t
	if err := syscall.Statfs(path, &st); err != nil {
		return "unknown"
	}
	switch uint32(st.Type) {
	case 0x01021994:
		return "tmpfs"
	case 0xEF53:
		return "ext4"
	case 0x794c7630:
		return "overlayfs"
	case 0x58465342:
		return "xfs"
	case 0x9123683E:
		return "btrfs"
	}
	return fmt.Sprintf("0x%x", uint32(st.Type))
}

// measureSetup times cold set-up cycles: each starts from nothing, ends
// ready for the first campaign, and is torn down untimed. At least 9
// cycles run, continuing until they total one second, capped at 1000;
// the median is the workload's setup_s.
func measureSetup(cfg runConfig, cycle func() (teardown func(), err error)) (sample, error) {
	minCycles, maxCycles, budget := 9, 1000, time.Second
	if cfg.smoke {
		minCycles, maxCycles = 3, 3
	}
	var times []float64
	var total time.Duration
	for len(times) < maxCycles && (len(times) < minCycles || total < budget) {
		t0 := time.Now()
		teardown, err := cycle()
		d := time.Since(t0)
		if err != nil {
			return sample{}, fmt.Errorf("set-up cycle %d: %w", len(times), err)
		}
		teardown()
		times = append(times, d.Seconds())
		total += d
	}
	return sample{median(times), len(times)}, nil
}

// panelOrder is the order in which a run goes through campaign seeds
// 1..n: a permutation drawn from -seed.
func panelOrder(n int, seed uint64) []uint64 {
	order := make([]uint64, n)
	for i, p := range rand.New(rand.NewSource(int64(seed))).Perm(n) {
		order[i] = uint64(p) + 1
	}
	return order
}

// panelStats turns per-campaign results into the panel-wide metrics.
func panelStats(res *runResult, results []*campaignResult) {
	var sims, first, best, hit []float64
	for _, r := range results {
		if r == nil {
			continue
		}
		sims = append(sims, r.sims)
		first = append(first, r.firstHit)
		best = append(best, r.best)
		hit = append(hit, r.hitProb)
	}
	res.set("sims_per_campaign", median(sims), len(sims))
	res.set("sims_to_first_hit", median(first), len(first))
	res.set("best_target_value", median(best), len(best))
	res.set("quality.target_hit_prob", median(hit), len(hit))
}

// runWorkload runs one workload: the end-to-end metrics with tracing
// off, or (cfg.trace) the per-layer metrics from a traced campaign and
// the fixed-iteration probes.
func runWorkload(w workload, cfg runConfig) (*runResult, error) {
	fs, err := w.spec(cfg.smoke)
	if err != nil {
		return nil, err
	}
	res := &runResult{metrics: map[string]sample{}}
	if cfg.smoke {
		res.rate.div = 20
	}
	if w.svc {
		err = runServiceWorkload(w, fs, cfg, res)
	} else {
		err = runFigureWorkload(w, fs, cfg, res)
	}
	if err != nil {
		return nil, err
	}
	defs := endToEnd
	if cfg.trace {
		if err := runProbes(w, cfg, res); err != nil {
			return nil, err
		}
		defs = perLayer
	} else {
		res.set("peak_rss_mb", peakRSSMB(), 1)
	}
	normalize(res, defs, cfg)
	return res, nil
}

// normalize divides every timing by the run's work-rate factor (and
// multiplies every rate by it): the reference kernel's slices, spread
// over the run, say how much slower than nominal the machine ran while
// the timings were taken. The raw.* diagnostics stay as measured.
func normalize(res *runResult, defs []metricDef, cfg runConfig) {
	f := res.rate.factor()
	fmt.Fprintf(cfg.out, "work rate: reference slice %.4f CPU-s (mean of %d), %.3f x nominal; timings below are divided by it\n",
		mean(res.rate.slices), len(res.rate.slices), f)
	res.set("raw.work_rate", f, len(res.rate.slices))
	for _, d := range defs {
		m, ok := res.metrics[d.name]
		if !ok || strings.HasPrefix(d.name, "raw.") {
			continue
		}
		switch d.unit {
		case "s", "ms", "us", "ns":
			m.value /= f
		case "1/s":
			m.value *= f
		}
		res.metrics[d.name] = m
	}
}

// runFigureWorkload times the panel of one figure workload. Repetition
// 0 is an untimed warm-up of the first campaign in the order — run
// without the farm, so that for fig3-farm its digest is the local
// reference the farm run of the same campaign must reproduce.
func runFigureWorkload(w workload, fs flowSpec, cfg runConfig, res *runResult) error {
	setup, err := measureSetup(cfg, func() (func(), error) {
		if err := setupLocal(fs); err != nil {
			return nil, err
		}
		if !w.farm {
			return func() {}, nil
		}
		fl, err := startFleet(false, false)
		if err != nil {
			return nil, err
		}
		return fl.stop, nil
	})
	if err != nil {
		return err
	}
	res.set("setup_s", setup.value, setup.n)

	var fl *fleet
	if w.farm {
		if fl, err = startFleet(false, cfg.trace); err != nil {
			return err
		}
		defer fl.stop()
	}
	// The farm workload's local reference is the fig3-local campaign: two
	// local workers. Worker count and fleet shape do not change a report.
	local := fs
	if w.farm {
		local.workers = 2
	}
	order := panelOrder(cfg.count(w.timed), cfg.seed)
	timed := order
	if cfg.trace {
		timed = order[:min(len(order), cfg.count(w.traceTimed))]
	}
	expect := map[uint64]string{}

	warmStart := now()
	warm, err := runCampaign(local, order[0], nil, false)
	if err != nil {
		return fmt.Errorf("warm-up campaign (seed %d): %w", order[0], err)
	}
	warmIv := since(warmStart)
	expect[order[0]] = warm.digest
	if cfg.injectMismatch {
		expect[order[0]] = "injected-mismatch"
	}

	results := make([]*campaignResult, len(order)) // by campaign seed − 1
	var walls, raws []float64
	var localCPU, cpu float64
	gap := cfg.refSlices(len(timed))
	res.rate.sample(gap)
	phase := now()
	for _, cs := range timed {
		if cfg.trace && w.farm {
			// The local twin of every farm campaign: its CPU is the base of
			// farm.cpu_overhead and its digest the farm run's reference.
			t := now()
			twin, err := runCampaign(local, cs, nil, false)
			if err != nil {
				return fmt.Errorf("local campaign (seed %d): %w", cs, err)
			}
			localCPU += since(t).cpu
			if _, ok := expect[cs]; !ok {
				expect[cs] = twin.digest
			}
		}
		runtime.GC() // every campaign starts from a collected heap
		t := now()
		r, err := runCampaign(fs, cs, fl, false)
		iv := since(t)
		res.attempted++
		if err != nil {
			res.fail(cfg.out, "campaign seed %d: %v", cs, err)
			continue
		}
		if want, ok := expect[cs]; ok && want != r.digest {
			res.fail(cfg.out, "campaign seed %d: report digest %.12s, expected %.12s", cs, r.digest, want)
			continue
		}
		expect[cs] = r.digest
		results[cs-1] = r
		walls = append(walls, iv.corrected)
		raws = append(raws, iv.wall)
		cpu += iv.cpu
		res.rate.sample(gap)
	}
	phaseIv := since(phase)
	if len(walls) == 0 {
		return errors.New("no campaign completed")
	}
	panelStats(res, results)
	res.digest = panelDigest(results)

	if !cfg.trace {
		// The panel's campaigns differ in cost by design, so its time is
		// the mean: total steal-corrected time over the campaigns run.
		wall := mean(walls)
		res.set("campaign_wall_s", wall, len(walls))
		res.set("campaign_cpu_s", cpu/float64(len(walls)), len(walls))
		res.set("sims_per_s", res.metrics["sims_per_campaign"].value/wall, len(walls))
		fmt.Fprintf(cfg.out, "raw: campaign wall %.4f s (uncorrected mean), steal %.1f%% of the timed phase, warm-up %.4f s\n",
			mean(raws), 100*stealFrac(phaseIv), warmIv.wall)
		fmt.Fprintf(cfg.out, "campaign seeds in run order %v, steal-corrected seconds %.4f\n", timed, walls)
		return nil
	}

	res.set("raw.campaign_wall_s", mean(raws), len(raws))
	res.set("raw.steal_frac", stealFrac(phaseIv), 1)
	res.set("raw.warmup_campaign_wall_s", warmIv.wall, 1)
	res.set("farm.cpu_overhead", 0, 0)
	if w.farm && localCPU > 0 {
		res.set("farm.cpu_overhead", cpu/localCPU-1, len(timed))
	}
	if results[order[0]-1] == nil {
		return errors.New("the campaign to trace did not complete untraced")
	}
	// The first timed campaign is the one the warm-up ran, and the one
	// run twice more: with the program's own recorder on, and stepwise
	// under the harness's tracer. Its untraced time is the base of both
	// overheads.
	untraced := walls[0]
	t := now()
	if _, err := runCampaign(fs, order[0], fl, true); err != nil {
		return fmt.Errorf("campaign with a recorder: %w", err)
	}
	res.set("obs.recorder_overhead", since(t).corrected/untraced-1, 1)
	return traceCampaign(w, fs, cfg, res, order[0], warm, fl, untraced, newTracer())
}

// stealFrac is the share of the interval's vCPU time the hypervisor
// took away.
func stealFrac(iv interval) float64 {
	if iv.wall <= 0 {
		return 0
	}
	return iv.steal / (iv.wall * float64(runtime.NumCPU()))
}

// panelDigest folds the campaigns' report digests, in panel order, into
// one short digest for the report.
func panelDigest(results []*campaignResult) string {
	h := sha256.New()
	for _, r := range results {
		if r != nil {
			io.WriteString(h, r.digest)
		}
	}
	return hex.EncodeToString(h.Sum(nil))[:16]
}

// traceCampaign runs the workload's one traced campaign: the stepwise
// flow with a span around every call. It writes the trace, prints the
// self-time table and derives the share metrics from it. ref is the real
// flow's outcome for the same spec and seed.
func traceCampaign(w workload, fs flowSpec, cfg runConfig, res *runResult, seed uint64, ref *campaignResult, fl *fleet, untraced float64, tr *tracer) error {
	t := now()
	step, err := stepwiseFlow(tr, fmt.Sprintf("%s/seed%d", w.name, seed), svcClients+1, fs, seed, fl)
	if err != nil {
		return fmt.Errorf("stepwise flow: %w", err)
	}
	traced := since(t).corrected
	res.attempted++
	switch {
	case float64(step.sims) != ref.sims:
		res.fail(cfg.out, "stepwise flow ran %d sims, the real flow %.0f", step.sims, ref.sims)
	case step.flowSig != ref.flowSig:
		res.fail(cfg.out, "stepwise flow outcome %.12s differs from the real flow's %.12s", step.flowSig, ref.flowSig)
	}
	for _, name := range []string{"corpus", "tac", "skeleton", "sample", "optimize", "harvest"} {
		res.set("core.share."+name, step.steps[name]/step.total, 1)
	}
	res.set("opt.engine_share", step.engine/step.total, 1)
	res.set("farm.remote_share", 0, 0)
	if step.chunks > 0 {
		res.set("farm.remote_share", float64(step.remoteChunks)/float64(step.chunks), int(step.chunks))
	}
	if !w.svc {
		// Against the same campaign untraced; svc-churn reports the
		// overhead of its traced wave instead.
		res.set("trace.overhead", traced/untraced-1, 1)
	}
	return writeTrace(w, cfg, tr)
}

func writeTrace(w workload, cfg runConfig, tr *tracer) error {
	fmt.Fprintf(cfg.out, "\nself time by span, traced run of %s:\n", w.name)
	printSelfTimes(cfg.out, tr.selfTimes())
	if err := os.MkdirAll(cfg.traceDir, 0o755); err != nil {
		return err
	}
	path := filepath.Join(cfg.traceDir, w.name+".trace.json")
	if err := tr.writeFile(path); err != nil {
		return err
	}
	fmt.Fprintf(cfg.out, "trace written to %s\n", path)
	return nil
}
