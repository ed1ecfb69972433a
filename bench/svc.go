package main

import (
	"errors"
	"fmt"
	"math/rand"
	"net/http"
	"os"
	"runtime"
	"sync"
	"time"
)

// svcStats is what a series of svc-churn waves measured. The slices
// hold one value per completed campaign unless noted.
type svcStats struct {
	total          interval          // summed over the timed waves (corrected is not)
	wall, raw      []float64         // submit to report in hand, steal-corrected and not
	post           []float64         // the POST round trip
	done           []float64         // submit to terminal state, steal-corrected
	queueWait, run []float64         // from the State timestamps, steal-corrected
	simRate, rate  []float64         // per wave: sims/s and campaigns/s over the corrected makespan
	warmRaw        float64           // median raw campaign time of the warm-up wave
	tracedRaw      float64           // the same of the traced wave, when there is one
	results        []*campaignResult // by position in the campaign list
	root           string            // the data root the waves wrote
}

// directRuns runs each of the campaign list's distinct specs directly
// through core: the expected outcome of every service campaign.
func directRuns(fs flowSpec) (map[uint64]*campaignResult, error) {
	expect := map[uint64]*campaignResult{}
	for seed := uint64(1); seed <= svcSeeds; seed++ {
		r, err := runCampaign(fs, seed, nil, false)
		if err != nil {
			return nil, fmt.Errorf("direct run of seed %d: %w", seed, err)
		}
		expect[seed] = r
	}
	return expect, nil
}

// listEntry is position i of the fixed campaign list: seeds cycle
// through 1..svcSeeds, tenants a and b alternate.
func listEntry(i int) (seed uint64, tenant string) {
	if i%2 == 1 {
		return uint64(i%svcSeeds) + 1, "b"
	}
	return uint64(i%svcSeeds) + 1, "a"
}

// waveOrder is the order in which wave n submits the list.
func waveOrder(cfg runConfig, n int) []int {
	return rand.New(rand.NewSource(int64(cfg.seed)<<16 + int64(n))).Perm(cfg.waveSize())
}

// eachOfWave runs f over the wave's list positions from svcClients
// goroutines, each taking the next position when its previous call
// returned (a closed loop), and returns the wave's interval.
func eachOfWave(order []int, f func(client, i int)) interval {
	next := make(chan int, len(order))
	for _, i := range order {
		next <- i
	}
	close(next)
	var wg sync.WaitGroup
	start := now()
	for c := 1; c <= svcClients; c++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for i := range next {
				f(c, i)
			}
		}()
	}
	wg.Wait()
	return since(start)
}

// campaignTiming is the raw timing of one service campaign.
type campaignTiming struct{ post, done, all, queue, run float64 }

// throughService takes one campaign through the HTTP API the way a
// client does: POST the spec, wait for the terminal state, GET the
// report. With tracing on each call gets a span under the client's lane.
func throughService(h *svcHarness, c *http.Client, fs flowSpec, i int, tr *tracer, lane *span) (campaignTiming, *svcOutcome, error) {
	seed, tenant := listEntry(i)
	var tm campaignTiming
	sp := tr.start(lane, "svc.campaign")
	defer sp.finish()
	t0 := time.Now()
	s := tr.start(sp, "http.POST")
	id, err := h.post(c, fs, seed, tenant)
	if sp != nil {
		sp.campaign, s.campaign = id, id
	}
	s.finish()
	if err != nil {
		return tm, nil, err
	}
	tm.post = time.Since(t0).Seconds()
	s = tr.start(sp, "service.Wait")
	h.wait(id)
	s.finish()
	tm.done = time.Since(t0).Seconds()
	s = tr.start(sp, "http.GET")
	out, err := h.get(c, id)
	s.finish()
	if err != nil {
		return tm, nil, err
	}
	tm.all = time.Since(t0).Seconds()
	tm.queue = out.started.Sub(out.submitted).Seconds()
	tm.run = out.finished.Sub(out.started).Seconds()
	return tm, out, nil
}

// runWaves starts a service on a fresh data root and drives waves of
// the fixed campaign list through it: one untimed warm-up wave, then
// `waves` timed ones, then (tr non-nil) one traced wave. Every campaign
// is an operation: it fails on an error, on a state other than done, or
// when its reports differ from the direct run of its spec.
func runWaves(fs flowSpec, cfg runConfig, res *runResult, waves int, expect map[uint64]*campaignResult, tr *tracer) (*svcStats, error) {
	root, err := dataRoot()
	if err != nil {
		return nil, err
	}
	h, err := startService(root)
	if err != nil {
		return nil, err
	}
	defer h.stop()
	clients := make([]*http.Client, svcClients+1)
	for c := 1; c <= svcClients; c++ {
		clients[c] = h.newClient()
		defer clients[c].CloseIdleConnections()
	}
	st := &svcStats{results: make([]*campaignResult, cfg.waveSize()), root: root}

	var mu sync.Mutex // guards res and st.results inside a wave
	wave := func(n int, tr *tracer) (interval, []campaignTiming) {
		var timings []campaignTiming
		lanes := make([]*span, svcClients+1)
		for c := 1; c <= svcClients; c++ {
			lanes[c] = tr.root("client", "", c)
		}
		iv := eachOfWave(waveOrder(cfg, n), func(c, i int) {
			tm, out, err := throughService(h, clients[c], fs, i, tr, lanes[c])
			seed, _ := listEntry(i)
			mu.Lock()
			defer mu.Unlock()
			res.attempted++
			switch {
			case err != nil:
				res.fail(cfg.out, "campaign seed %d: %v", seed, err)
			case out.state != "done":
				res.fail(cfg.out, "campaign seed %d ended %s", seed, out.state)
			case out.result.digest != expect[seed].digest || (cfg.injectMismatch && n == 1 && i == 0):
				res.fail(cfg.out, "campaign seed %d: reports %.12s differ from the direct run's %.12s",
					seed, out.result.digest, expect[seed].digest)
			default:
				st.results[i] = out.result
				timings = append(timings, tm)
			}
		})
		for _, l := range lanes {
			l.finish()
		}
		return iv, timings
	}
	rawOf := func(timings []campaignTiming) []float64 {
		raw := make([]float64, len(timings))
		for i, t := range timings {
			raw[i] = t.all
		}
		return raw
	}

	_, warm := wave(0, nil)
	st.warmRaw = median(rawOf(warm))
	gap := cfg.refSlices(waves)
	res.rate.sample(gap)
	for n := 1; n <= waves; n++ {
		runtime.GC() // every wave starts from a collected heap
		iv, timings := wave(n, nil)
		res.rate.sample(gap)
		// /proc/stat counts steal in 10 ms ticks, too coarse for one
		// 30 ms campaign: the wave's correction is applied to each.
		factor := iv.corrected / iv.wall
		var sims float64
		for _, t := range timings {
			st.wall = append(st.wall, t.all*factor)
			st.raw = append(st.raw, t.all)
			st.post = append(st.post, t.post)
			st.done = append(st.done, t.done*factor)
			st.queueWait = append(st.queueWait, t.queue*factor)
			st.run = append(st.run, t.run*factor)
		}
		for _, r := range st.results {
			if r != nil {
				sims += r.sims
			}
		}
		st.total.wall += iv.wall
		st.total.cpu += iv.cpu
		st.total.steal += iv.steal
		st.simRate = append(st.simRate, sims/iv.corrected)
		st.rate = append(st.rate, float64(len(timings))/iv.corrected)
	}
	if tr != nil {
		_, timings := wave(waves+1, tr)
		st.tracedRaw = median(rawOf(timings))
	}
	if len(st.wall) == 0 {
		return nil, errors.New("no campaign completed")
	}
	return st, nil
}

// bareWave runs the campaign list directly through core from the same
// number of concurrent callers and returns the mean steal-corrected
// campaign time: the base of svc.tax.
func bareWave(fs flowSpec, cfg runConfig) (float64, error) {
	var mu sync.Mutex
	var times []float64
	var firstErr error
	iv := eachOfWave(waveOrder(cfg, 0), func(_, i int) {
		seed, _ := listEntry(i)
		t0 := time.Now()
		_, err := runCampaign(fs, seed, nil, false)
		d := time.Since(t0).Seconds()
		mu.Lock()
		defer mu.Unlock()
		if err != nil && firstErr == nil {
			firstErr = err
		}
		times = append(times, d)
	})
	if firstErr != nil {
		return 0, firstErr
	}
	return mean(times) * iv.corrected / iv.wall, nil
}

// runServiceWorkload is svc-churn: set-up cycles, the direct runs that
// give every campaign its expected reports, then the waves.
func runServiceWorkload(w workload, fs flowSpec, cfg runConfig, res *runResult) error {
	setup, err := measureSetup(cfg, func() (func(), error) {
		if err := setupLocal(fs); err != nil {
			return nil, err
		}
		root, err := dataRoot()
		if err != nil {
			return nil, err
		}
		h, err := startService(root)
		if err != nil {
			return nil, err
		}
		return func() { h.stop(); os.RemoveAll(root) }, nil
	})
	if err != nil {
		return err
	}
	res.set("setup_s", setup.value, setup.n)
	expect, err := directRuns(fs)
	if err != nil {
		return err
	}
	var tr *tracer
	waves := cfg.count(w.timed)
	if cfg.trace {
		waves, tr = cfg.count(w.traceTimed), newTracer()
	}
	st, err := runWaves(fs, cfg, res, waves, expect, tr)
	if err != nil {
		return err
	}
	panelStats(res, st.results)
	res.digest = panelDigest(st.results)
	if !cfg.trace {
		// The mean, as for the figure panels: with two closed-loop clients
		// it is twice the makespan per campaign, as steady as the
		// throughput, where the median moves with the shape of the
		// latency distribution (measured: quartile spread 2.5 % against 7 %).
		res.set("campaign_wall_s", mean(st.wall), len(st.wall))
		res.set("campaign_cpu_s", st.total.cpu/float64(len(st.wall)), len(st.wall))
		res.set("sims_per_s", median(st.simRate), len(st.simRate))
		fmt.Fprintf(cfg.out, "raw: campaign wall %.4f s (uncorrected mean; median %.4f, p90 %.4f), steal %.1f%% of the timed waves, warm-up wave %.4f s\n",
			mean(st.raw), median(st.raw), quantile(st.raw, 0.9), 100*stealFrac(st.total), st.warmRaw)
		return nil
	}

	res.set("raw.campaign_wall_s", mean(st.raw), len(st.raw))
	res.set("raw.steal_frac", stealFrac(st.total), 1)
	res.set("raw.warmup_campaign_wall_s", st.warmRaw, 1)
	res.set("trace.overhead", st.tracedRaw/median(st.raw)-1, cfg.waveSize())
	res.set("farm.cpu_overhead", 0, 0)
	if err := serviceLayerMetrics(fs, cfg, res, st); err != nil {
		return err
	}
	// The direct runs again, alternately without and with the program's
	// own recorder.
	// One thread each: plain wall, not the two-vCPU steal correction.
	times := map[bool][]float64{}
	for i := 0; i < 3*svcSeeds; i++ {
		for _, recorded := range []bool{false, true} {
			t := time.Now()
			if _, err := runCampaign(fs, uint64(i%svcSeeds)+1, nil, recorded); err != nil {
				return err
			}
			times[recorded] = append(times[recorded], time.Since(t).Seconds())
		}
	}
	res.set("obs.recorder_overhead", median(times[true])/median(times[false])-1, len(times[true]))
	// The same spec once more through the stepwise flow, for the share of
	// each flow step in the bare campaign.
	return traceCampaign(w, fs, cfg, res, 1, expect[1], nil, 0, tr)
}

// serviceLayerMetrics derives the svc.* and journal.*_per_campaign
// layer metrics from a series of waves.
func serviceLayerMetrics(fs flowSpec, cfg runConfig, res *runResult, st *svcStats) error {
	n := len(st.wall)
	res.set("svc.submit_us", median(st.post)*1e6, n)
	res.set("svc.queue_wait_ms", median(st.queueWait)*1e3, n)
	res.set("svc.run_ms", median(st.run)*1e3, n)
	res.set("svc.submit_to_done_p90_ms", quantile(st.done, 0.9)*1e3, n)
	res.set("svc.campaigns_per_s", median(st.rate), len(st.rate))
	bare, err := bareWave(fs, cfg)
	if err != nil {
		return fmt.Errorf("bare wave: %w", err)
	}
	res.set("svc.tax", mean(st.wall)/bare-1, n)
	appends, bytesPer, err := journalStats(st.root)
	if err != nil {
		return err
	}
	res.set("journal.appends_per_campaign", median(appends), len(appends))
	res.set("journal.bytes_per_campaign", median(bytesPer), len(bytesPer))
	return nil
}
