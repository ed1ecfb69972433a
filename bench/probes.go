package main

import (
	"fmt"
	"runtime"
	"time"
)

// probe sizes: every layer operation runs a fixed number of iterations
// in a fixed number of blocks; its time is the median over the blocks
// of the block's mean. One thread, unless the operation itself starts
// more.
var probeSizes = map[string]struct{ iters, blocks int }{
	"duv.iounit.sim":        {2000, 5},
	"duv.l3cache.sim":       {1000, 5},
	"duv.ifu.sim":           {400, 5},
	"generator.compile":     {500, 5},
	"generator.decision":    {20000, 5},
	"coverage.counts_add":   {20000, 5},
	"coverage.counts_merge": {20000, 5},
	"sim.run256.w1":         {20, 5},
	"sim.run256.w2":         {20, 5},
	"sim.handoff":           {2000, 5},
	"farm.chunk1.pipe":      {1000, 5},
	"farm.chunk1.tcp":       {1000, 5},
	"farm.chunk115.tcp":     {20, 5},
	"opt.if.run":            {3, 3},
	"opt.bayes.run":         {1, 3},
	"journal.append.tmpfs":  {1000, 5},
	"journal.append.disk":   {30, 3},
	"journal.recover":       {20, 5},
	"lease.acquire_release": {100, 5},
	"atomicfile.write":      {300, 5},
	"knowledge.add":         {300, 5},
	"knowledge.load":        {30, 5},
	"template.parse":        {500, 5},
	"skeleton.skeletonize":  {500, 5},
	"skeleton.instantiate":  {2000, 5},
	"tac.best_templates":    {200, 5},
	"neighbors.ordinal":     {5000, 5},
	"neighbors.cross":       {100, 5},
	"neighbors.score":       {20000, 5},
}

// timeOp returns the operation's seconds per iteration. No steal
// correction here: /proc/stat sums steal over both vCPUs, which is right
// for a campaign that keeps both busy and twice too much for a probe on
// one thread. The median over the blocks sheds a stolen block instead.
func timeOp(op layerOp, iters, blocks int) (float64, error) {
	for i := 0; i < (iters+9)/10; i++ { // untimed warm-up
		if err := op(); err != nil {
			return 0, err
		}
	}
	means := make([]float64, blocks)
	for b := range means {
		t0 := time.Now()
		for i := 0; i < iters; i++ {
			if err := op(); err != nil {
				return 0, err
			}
		}
		means[b] = time.Since(t0).Seconds() / float64(iters)
	}
	return median(means), nil
}

// pairedBlock times iters 256-sim batches inline, through a one-worker
// environment and through a two-worker one, back to back, and returns
// the one-worker overhead per sim (w1 − inline: the same simulations and
// Counts.Add calls, minus the environment) and the parallel efficiency
// w1 / (2·w2).
func pairedBlock(set *layerSet, iters int) (overhead, eff float64) {
	block := func(name string) float64 {
		t0 := time.Now()
		for i := 0; i < iters; i++ {
			set.ops[name]() // these three cannot fail once the set is built
		}
		return time.Since(t0).Seconds() / float64(iters) / 256
	}
	inline, w1, w2 := block("sim.inline256"), block("sim.run256.w1"), block("sim.run256.w2")
	return w1 - inline, w1 / (2 * w2)
}

// runProbes measures every layer through its exported functions and
// adds the per-layer metrics that do not come from the traced campaign.
func runProbes(w workload, cfg runConfig, res *runResult) error {
	tmp, err := dataRoot()
	if err != nil {
		return err
	}
	disk, err := diskDir()
	if err != nil {
		return err
	}
	set, err := newLayerSet(tmp, disk, cfg.seed)
	if err != nil {
		return err
	}
	defer set.close()
	t := map[string]float64{} // seconds per iteration
	n := map[string]int{}
	probed := 0
	for name, size := range probeSizes {
		if probed%3 == 0 { // a reference slice beside every third probe
			res.rate.sample(1)
		}
		probed++
		op, ok := set.ops[name]
		if !ok {
			return fmt.Errorf("probe %s has no operation", name)
		}
		if cfg.smoke {
			size.iters, size.blocks = (size.iters+49)/50, 1
		}
		if t[name], err = timeOp(op, size.iters, size.blocks); err != nil {
			return fmt.Errorf("probe %s: %w", name, err)
		}
		n[name] = size.iters * size.blocks
	}
	us := func(metric, op string, per float64) { res.set(metric, t[op]/per*1e6, n[op]) }
	ns := func(metric, op string, per float64) { res.set(metric, t[op]/per*1e9, n[op]) }
	ms := func(metric, op string) { res.set(metric, t[op]*1e3, n[op]) }

	us("duv.iounit.sim_us", "duv.iounit.sim", 1)
	us("duv.l3cache.sim_us", "duv.l3cache.sim", 1)
	us("duv.ifu.sim_us", "duv.ifu.sim", 1)
	us("generator.compile_us", "generator.compile", 1)
	ns("generator.decision_ns", "generator.decision", 2)
	ns("coverage.counts_add_ns", "coverage.counts_add", 1)
	ns("coverage.counts_merge_ns", "coverage.counts_merge", 1)

	us("sim.run_us_per_sim.w1", "sim.run256.w1", 256)
	us("sim.run_us_per_sim.w2", "sim.run256.w2", 256)
	us("sim.handoff_us", "sim.handoff", 1)
	// The scheduler's overhead and its parallel efficiency are a small
	// difference and a ratio of large timings, and this machine's speed
	// changes several times a second: measure the two sides alternately,
	// block by block, and take the median over the blocks.
	blocks, iters := 9, 10
	if cfg.smoke {
		blocks, iters = 1, 1
	}
	var overheads, effs []float64
	for b := 0; b < blocks; b++ {
		overhead, eff := pairedBlock(set, iters)
		overheads, effs = append(overheads, overhead), append(effs, eff)
	}
	res.set("sim.sched_overhead_us_per_sim", median(overheads)*1e6, blocks*iters)
	res.set("sim.parallel_eff", median(effs), blocks*iters)

	res.set("farm.chunk_rtt_us.pipe", (t["farm.chunk1.pipe"]-t["duv.iounit.sim"])*1e6, n["farm.chunk1.pipe"])
	res.set("farm.chunk_rtt_us.tcp", (t["farm.chunk1.tcp"]-t["duv.iounit.sim"])*1e6, n["farm.chunk1.tcp"])
	us("farm.remote_us_per_sim", "farm.chunk115.tcp", 115)

	ms("opt.if.run_ms", "opt.if.run")
	ms("opt.bayes.run_ms", "opt.bayes.run")
	res.set("opt.bayes.last_propose_ms", median(set.lastPropose)*1e3, len(set.lastPropose))

	us("journal.append_us.tmpfs", "journal.append.tmpfs", 1)
	us("journal.append_us.disk", "journal.append.disk", 1)
	us("journal.recover_us_per_record", "journal.recover", recoverRecords)
	us("lease.acquire_release_us", "lease.acquire_release", 1)
	us("atomicfile.write_us", "atomicfile.write", 1)
	us("knowledge.add_us", "knowledge.add", 1)
	us("knowledge.load_us", "knowledge.load", 1)

	us("template.parse_us", "template.parse", 1)
	us("skeleton.skeletonize_us", "skeleton.skeletonize", 1)
	us("skeleton.instantiate_us", "skeleton.instantiate", 1)
	us("tac.best_templates_us", "tac.best_templates", 1)
	us("neighbors.ordinal_us", "neighbors.ordinal", 1)
	us("neighbors.cross_us", "neighbors.cross", 1)
	ns("neighbors.score_ns", "neighbors.score", 1)

	// Heap allocations per simulated instance: a count, so it repeats.
	const allocSims = 1000
	var before, after runtime.MemStats
	runtime.ReadMemStats(&before)
	for i := 0; i < allocSims; i++ {
		if err := set.ops["duv.iounit.sim"](); err != nil {
			return err
		}
	}
	runtime.ReadMemStats(&after)
	res.set("duv.iounit.sim_allocs", float64(after.Mallocs-before.Mallocs)/allocSims, allocSims)

	if w.svc {
		return nil // svc-churn's own waves already gave the service metrics
	}
	svc, _ := findWorkload("svc-churn")
	svcSpec, err := svc.spec(cfg.smoke)
	if err != nil {
		return err
	}
	expect, err := directRuns(svcSpec)
	if err != nil {
		return err
	}
	st, err := runWaves(svcSpec, cfg, res, cfg.count(2), expect, nil)
	if err != nil {
		return err
	}
	return serviceLayerMetrics(svcSpec, cfg, res, st)
}
