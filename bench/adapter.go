package main

// adapter.go is the only file of the benchmark that calls into
// repro/internal/...: every exported function the benchmark pins is
// named here and listed in README.md ("Pinned functions"). A change that
// renames one of them has to be preceded by a benchmark change.

import (
	"bytes"
	"context"
	"crypto/sha256"
	"encoding/binary"
	"encoding/hex"
	"encoding/json"
	"errors"
	"fmt"
	"io"
	"math"
	"net"
	"net/http"
	"os"
	"path/filepath"
	"time"

	"repro/internal/atomicfile"
	"repro/internal/core"
	"repro/internal/coverage"
	"repro/internal/duv"
	"repro/internal/farm"
	"repro/internal/figures"
	"repro/internal/generator"
	"repro/internal/journal"
	"repro/internal/knowledge"
	"repro/internal/lease"
	"repro/internal/neighbors"
	"repro/internal/obs"
	"repro/internal/opt"
	"repro/internal/rng"
	"repro/internal/service"
	"repro/internal/sim"
	"repro/internal/skeleton"
	"repro/internal/tac"
	"repro/internal/template"
)

// flowSpec is the benchmark's own description of one campaign: which
// unit, which target, which budgets. It converts to a figures.Options
// (full-size figure workloads), a core.Config (direct runs), a
// service.Spec (svc-churn) and drives the stepwise traced flow.
type flowSpec struct {
	figure string  // "fig3" | "fig4" | "fig5": run through figures.FigN; "" = through core
	scale  float64 // figures.Options.Scale, when figure is set

	unit    string
	family  string // family target (with decay and rounds) ...
	decay   float64
	rounds  int
	cross   string // ... or cross-product target
	engine  string // "" = the default engine
	workers int

	// Budgets. For figure specs they are filled by figureSpec with the
	// arithmetic of figures.FigN, which the stepwise flow has to repeat.
	corpus, top, subranges         int
	samples, sampleSims            int
	iters, dirs, optSims, bestSims int
}

func scaled(n int, scale float64) int {
	if v := int(float64(n) * scale); v >= 1 {
		return v
	}
	return 1
}

// figureSpec returns the campaign figures.FigN(Options{Scale: scale})
// runs, with the budgets spelled out.
func figureSpec(figure string, scale float64, rounds, workers int, engine string) (flowSpec, error) {
	fs := flowSpec{figure: figure, scale: scale, rounds: rounds, workers: workers, engine: engine,
		decay: 0.4, subranges: 4, sampleSims: 100}
	var corpusTotal int
	switch figure {
	case "fig3":
		fs.unit, fs.family = "iounit", "crc_fifo"
		corpusTotal, fs.top = 669000, 2
		fs.samples, fs.iters, fs.dirs, fs.optSims = scaled(200, scale*10), 7, 19, 200
		fs.bestSims = scaled(10000, scale*10)
	case "fig4":
		fs.unit, fs.family = "l3cache", "byp_reqs"
		corpusTotal, fs.top = 1000000, 2
		fs.samples, fs.iters, fs.dirs, fs.optSims = scaled(210, scale*10), 25, 11, 100
		fs.bestSims = scaled(15000, scale*10)
	case "fig5":
		fs.unit, fs.cross, fs.family, fs.rounds = "ifu", "ifu", "", 1
		corpusTotal, fs.top = 300000, 3
		fs.samples, fs.iters, fs.dirs, fs.optSims = scaled(200, scale*10), 10, 15, 200
		fs.bestSims = scaled(20000, scale*10)
	default:
		return fs, fmt.Errorf("unknown figure %q", figure)
	}
	unit, err := duv.New(fs.unit)
	if err != nil {
		return fs, err
	}
	fs.corpus = scaled(corpusTotal, scale) / len(unit.BaseTemplates())
	return fs, nil
}

func (fs flowSpec) coreConfig(seed uint64, fleet *fleet, rec *obs.Recorder) core.Config {
	cfg := core.Config{
		Seed: seed, Workers: fs.workers, Engine: fs.engine, Obs: rec,
		CorpusSimsPerTemplate: fs.corpus, TopTemplates: fs.top, Subranges: fs.subranges,
		SampleTemplates: fs.samples, SampleSims: fs.sampleSims,
		OptIterations: fs.iters, OptDirections: fs.dirs, OptSims: fs.optSims, BestSims: fs.bestSims,
	}
	if fleet != nil {
		cfg.Runner, cfg.RunnerLanes = fleet.disp, 1
	}
	return cfg
}

func (fs flowSpec) serviceSpec(seed uint64, tenant string) service.Spec {
	spec := service.Spec{
		Unit: fs.unit, Family: fs.family, Decay: fs.decay, Rounds: fs.rounds, Cross: fs.cross,
		Seed: seed, Tenant: tenant,
		Config: service.SpecConfig{
			CorpusSims: fs.corpus, TopTemplates: fs.top, Subranges: fs.subranges,
			SampleTemplates: fs.samples, SampleSims: fs.sampleSims,
			OptIterations: fs.iters, OptDirections: fs.dirs, OptSims: fs.optSims, BestSims: fs.bestSims,
		},
	}
	if fs.engine != "" {
		spec.Engine = &service.EngineSpec{Name: fs.engine}
	}
	return spec
}

// campaignResult is what the harness keeps of one finished campaign.
type campaignResult struct {
	digest   string  // sha256 of the campaign's reports as the service marshals them
	flowSig  string  // digest of the numeric outcome only; the stepwise flow reproduces it
	sims     float64 // round-1 "before" sims + Σ rounds total_sims
	firstHit float64 // sims_to_first_hit
	best     float64 // round 1's final Progress[].Best
	hitProb  float64 // last round's "best" phase: mean hit rate over its target events
	rounds   int
}

// summarize derives the campaign's metrics from its reports.
func summarize(reports []*service.ReportJSON) (*campaignResult, error) {
	if len(reports) == 0 || len(reports[0].Phases) == 0 {
		return nil, errors.New("campaign produced no report")
	}
	raw, err := json.Marshal(reports)
	if err != nil {
		return nil, err
	}
	sum := sha256.Sum256(raw)
	res := &campaignResult{digest: hex.EncodeToString(sum[:]), rounds: len(reports)}
	res.sims = float64(reports[0].Phases[0].Sims)

	// First hit: cumulative campaign sims (corpus excluded) at the end of
	// the first phase that hit any round-1 target event.
	target := map[string]bool{}
	for _, name := range reports[0].TargetEvents {
		target[name] = true
	}
	var cum uint64 // campaign sims spent before the current round
	sig := sha256.New()
	for _, r := range reports {
		res.sims += float64(r.TotalSims)
		inRound := cum
		for _, p := range r.Phases {
			sigUints(sig, p.Sims)
			sigUints(sig, p.TargetHits...)
			if p.Name == "before" {
				continue
			}
			inRound += p.Sims
			hit := false
			for i, h := range p.TargetHits {
				if h > 0 && i < len(r.TargetEvents) && target[r.TargetEvents[i]] {
					hit = true
				}
			}
			if hit && res.firstHit == 0 {
				res.firstHit = float64(inRound)
			}
		}
		cum += r.TotalSims
		for _, name := range r.TargetEvents {
			io.WriteString(sig, name)
		}
		for _, w := range r.BestWeights {
			sigUints(sig, math.Float64bits(w))
		}
		sigUints(sig, r.TotalSims)
	}
	if res.firstHit == 0 {
		res.firstHit = float64(cum)
	}
	res.flowSig = hex.EncodeToString(sig.Sum(nil))
	if n := len(reports[0].Progress); n > 0 {
		res.best = reports[0].Progress[n-1].Best
	}
	last := reports[len(reports)-1]
	for _, p := range last.Phases {
		if p.Name == "best" && p.Sims > 0 && len(p.TargetHits) > 0 {
			var hits uint64
			for _, h := range p.TargetHits {
				hits += h
			}
			res.hitProb = float64(hits) / (float64(p.Sims) * float64(len(p.TargetHits)))
		}
	}
	return res, nil
}

func sigUints(w io.Writer, vs ...uint64) {
	var b [8]byte
	for _, v := range vs {
		binary.BigEndian.PutUint64(b[:], v)
		w.Write(b[:])
	}
}

// runCampaign runs one campaign to its reports: a figure spec through
// figures.FigN, any other spec directly through core. fleet, when
// non-nil, adds one remote lane; recorded sets Config.Obs to a recorder
// with metrics and tracing on, as a production run with -trace -metrics.
func runCampaign(fs flowSpec, seed uint64, fleet *fleet, recorded bool) (*campaignResult, error) {
	unit, err := duv.New(fs.unit)
	if err != nil {
		return nil, err
	}
	var rec *obs.Recorder
	if recorded {
		rec = obs.NewRecorder()
	}
	var reports []*core.Report
	var envSims uint64
	if fs.figure != "" {
		opts := figures.Options{Scale: fs.scale, Seed: seed, Rounds: fs.rounds, Workers: fs.workers,
			Engine: fs.engine, Obs: rec}
		if fleet != nil {
			opts.Runner, opts.RunnerLanes = fleet.disp, 1
		}
		run := map[string]func(figures.Options) (*figures.Result, error){
			"fig3": figures.Fig3, "fig4": figures.Fig4, "fig5": figures.Fig5}[fs.figure]
		res, err := run(opts)
		if err != nil {
			return nil, err
		}
		reports, envSims = res.Reports, res.Sims
	} else {
		flow, err := core.New(unit, fs.coreConfig(seed, fleet, rec))
		if err != nil {
			return nil, err
		}
		defer flow.Close()
		if fs.cross != "" {
			r, err := flow.RunCross(context.Background(), fs.cross)
			if err != nil {
				return nil, err
			}
			reports = []*core.Report{r}
		} else if reports, err = flow.RunFamilyRefined(context.Background(), fs.family, fs.decay, fs.rounds); err != nil {
			return nil, err
		}
		envSims = flow.Env().Simulations()
	}
	out := make([]*service.ReportJSON, len(reports))
	for i, r := range reports {
		out[i] = service.NewReportJSON(r, unit.Model())
	}
	res, err := summarize(out)
	if err != nil {
		return nil, err
	}
	if res.sims != float64(envSims) {
		return nil, fmt.Errorf("reports account for %.0f sims, the environment ran %d", res.sims, envSims)
	}
	return res, nil
}

// setupLocal is the set-up a local campaign needs before it can start:
// the unit is constructed and the engine selection validated.
func setupLocal(fs flowSpec) error {
	if _, err := duv.New(fs.unit); err != nil {
		return err
	}
	return opt.Validate(fs.engine, nil)
}

// fleet is one in-process farm worker behind a real TCP listener (or the
// in-memory loopback) plus the dispatcher that feeds it.
type fleet struct {
	srv    *farm.Server
	disp   *farm.Dispatcher
	served chan error // Serve's return; nil for the loopback
	reg    *obs.Registry
}

// startFleet listens on 127.0.0.1, serves a capacity-1 worker on it and
// returns once the dispatcher's single connection is ready. pipe selects
// the loopback transport instead of TCP; counters attaches a metrics
// registry to the dispatcher (traced runs only).
func startFleet(pipe, counters bool) (*fleet, error) {
	fl := &fleet{srv: farm.NewServer(farm.ServerOptions{Capacity: 1})}
	opts := farm.Options{MaxConnsPerWorker: 1}
	if counters {
		fl.reg = obs.NewRegistry()
		opts.Rec = &obs.Recorder{Metrics: fl.reg}
	}
	addr := "bench-worker"
	if pipe {
		lb := farm.NewLoopback()
		lb.Add(addr, fl.srv, farm.Faults{})
		opts.Dial = lb.Dial
	} else {
		ln, err := net.Listen("tcp", "127.0.0.1:0")
		if err != nil {
			return nil, err
		}
		addr = ln.Addr().String()
		fl.served = make(chan error, 1)
		go func() { fl.served <- fl.srv.Serve(ln) }()
	}
	fl.disp = farm.New([]string{addr}, opts)
	if err := fl.disp.WaitReady(10 * time.Second); err != nil {
		fl.stop()
		return nil, err
	}
	return fl, nil
}

// stop closes the dispatcher, drains the worker (which closes its
// listener) and waits for the accept loop to return.
func (fl *fleet) stop() {
	fl.disp.Close()
	fl.srv.Shutdown()
	if fl.served != nil {
		<-fl.served
	}
}

func (fl *fleet) remoteChunks() uint64 {
	if fl == nil || fl.reg == nil {
		return 0
	}
	return fl.reg.Counter("farm.chunks").Value()
}

// svcHarness is an in-process campaign service behind its own HTTP
// handler on a 127.0.0.1 listener.
type svcHarness struct {
	svc    *service.Service
	srv    *http.Server
	served chan error
	url    string
}

// startService opens the service on dataDir, serves Handler() and
// returns after the first successful GET /readyz.
func startService(dataDir string) (*svcHarness, error) {
	svc, err := service.New(service.Config{DataDir: dataDir, MaxRunning: 2, Workers: 1, MaxQueue: 64})
	if err != nil {
		return nil, err
	}
	ln, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		svc.Close()
		return nil, err
	}
	h := &svcHarness{svc: svc, srv: &http.Server{Handler: svc.Handler()},
		served: make(chan error, 1), url: "http://" + ln.Addr().String()}
	go func() { h.served <- h.srv.Serve(ln) }()
	c := h.newClient()
	defer c.CloseIdleConnections()
	resp, err := c.Get(h.url + "/readyz")
	if err == nil {
		io.Copy(io.Discard, resp.Body)
		resp.Body.Close()
		if resp.StatusCode != http.StatusOK {
			err = fmt.Errorf("GET /readyz: %s", resp.Status)
		}
	}
	if err != nil {
		h.stop()
		return nil, err
	}
	return h, nil
}

func (h *svcHarness) stop() {
	h.srv.Close()
	<-h.served
	h.svc.Close()
}

// newClient returns a keep-alive client limited to one connection.
func (h *svcHarness) newClient() *http.Client {
	return &http.Client{Transport: &http.Transport{MaxConnsPerHost: 1, MaxIdleConnsPerHost: 1}}
}

// svcOutcome is one campaign as the service reports it.
type svcOutcome struct {
	state                        string
	submitted, started, finished time.Time
	result                       *campaignResult // nil unless done
}

// post submits the campaign and returns its id.
func (h *svcHarness) post(c *http.Client, fs flowSpec, seed uint64, tenant string) (string, error) {
	body, err := json.Marshal(fs.serviceSpec(seed, tenant))
	if err != nil {
		return "", err
	}
	resp, err := c.Post(h.url+"/v1/campaigns", "application/json", bytes.NewReader(body))
	if err != nil {
		return "", err
	}
	defer resp.Body.Close()
	var out struct {
		ID    string `json:"id"`
		Error string `json:"error"`
	}
	if err := json.NewDecoder(resp.Body).Decode(&out); err != nil {
		return "", err
	}
	if resp.StatusCode != http.StatusAccepted {
		return "", fmt.Errorf("POST /v1/campaigns: %s: %s", resp.Status, out.Error)
	}
	return out.ID, nil
}

func (h *svcHarness) wait(id string) { h.svc.Wait(context.Background(), id) }

// get fetches the campaign's state and summarizes its reports.
func (h *svcHarness) get(c *http.Client, id string) (*svcOutcome, error) {
	resp, err := c.Get(h.url + "/v1/campaigns/" + id)
	if err != nil {
		return nil, err
	}
	defer resp.Body.Close()
	if resp.StatusCode != http.StatusOK {
		return nil, fmt.Errorf("GET /v1/campaigns/%s: %s", id, resp.Status)
	}
	var st service.State
	if err := json.NewDecoder(resp.Body).Decode(&st); err != nil {
		return nil, err
	}
	out := &svcOutcome{state: st.State, submitted: st.SubmittedAt}
	if st.StartedAt != nil {
		out.started = *st.StartedAt
	}
	if st.FinishedAt != nil {
		out.finished = *st.FinishedAt
	}
	if st.State != service.StateDone {
		return out, nil
	}
	if out.result, err = summarize(st.Reports); err != nil {
		return nil, err
	}
	return out, nil
}

// journalStats decodes every campaign's flow.journal under the data
// root and returns the per-campaign record and byte counts.
func journalStats(dataDir string) (appends, bytesPer []float64, err error) {
	paths, err := filepath.Glob(filepath.Join(dataDir, "*", "flow.journal"))
	if err != nil {
		return nil, nil, err
	}
	for _, p := range paths {
		data, err := os.ReadFile(p)
		if err != nil {
			return nil, nil, err
		}
		body, ok := bytes.CutPrefix(data, []byte(journal.Magic))
		if !ok {
			return nil, nil, fmt.Errorf("%s: not a journal", p)
		}
		recs, n := journal.DecodeAll(body)
		if n != len(body) {
			return nil, nil, fmt.Errorf("%s: %d trailing bytes do not decode", p, len(body)-n)
		}
		appends = append(appends, float64(len(recs)))
		bytesPer = append(bytesPer, float64(len(data)))
	}
	return appends, bytesPer, nil
}

// stepResult is the outcome of the stepwise flow.
type stepResult struct {
	sims         uint64  // simulations the environment ran, corpus included
	flowSig      string  // campaignResult.flowSig of the same campaign, recomputed step by step
	total        float64 // seconds, the campaign span
	steps        map[string]float64
	engine       float64 // seconds inside opt.New / Propose / Observe
	chunks       uint64  // chunks the scheduler completed (0 unless a fleet is attached)
	remoteChunks uint64
}

// stepwiseFlow drives one campaign through the six exported steps of the
// flow — approximate target, TAC ranking and merge, skeletonize, sample,
// optimize, harvest — with a span around every call. It repeats the
// seeding of core.Flow exactly, so its numeric outcome (flowSig) equals
// the real flow's for the same spec and seed.
func stepwiseFlow(tr *tracer, campaign string, lane int, fs flowSpec, seed uint64, fleet *fleet) (*stepResult, error) {
	unit, err := duv.New(fs.unit)
	if err != nil {
		return nil, err
	}
	model := unit.Model()
	out := &stepResult{steps: map[string]float64{}}
	root := tr.root("campaign", campaign, lane)
	// call runs f under a span named after the function it calls.
	call := func(parent *span, name string, f func()) {
		s := tr.start(parent, name)
		f()
		s.finish()
		switch name {
		case "opt.New", "opt.Propose", "opt.Observe":
			out.engine += s.seconds()
		}
	}
	step := func(name string, f func(s *span) error) error {
		s := tr.start(root, name)
		err := f(s)
		s.finish()
		out.steps[name] += s.seconds()
		return err
	}

	env := sim.NewEnv(unit, seed, fs.workers)
	defer env.Close()
	var reg *obs.Registry
	if fleet != nil {
		reg = obs.NewRegistry()
		env.SetRecorder(&obs.Recorder{Metrics: reg})
		env.AttachRunner(fleet.disp, 1)
	}
	remoteBefore := fleet.remoteChunks()

	var repo *coverage.Repository
	if err := step("corpus", func(s *span) error {
		call(s, "sim.BuildCorpus", func() { repo, err = env.BuildCorpus(fs.corpus) })
		return err
	}); err != nil {
		return nil, err
	}

	var ids []int // the family's (or the cross product's) events
	if fs.cross != "" {
		cp, ok := model.Cross(fs.cross)
		if !ok {
			return nil, fmt.Errorf("unit %s has no cross %q", fs.unit, fs.cross)
		}
		if ids, err = model.IDs(cp.EventNames()); err != nil {
			return nil, err
		}
	} else {
		var ok bool
		if ids, ok = model.Family(fs.family); !ok {
			return nil, fmt.Errorf("unit %s has no family %q", fs.unit, fs.family)
		}
	}
	uncovered := func() []int {
		var out []int
		for _, id := range ids {
			if repo.Total().Hits(id) == 0 {
				out = append(out, id)
			}
		}
		return out
	}

	known := map[string]*template.Template{}
	for _, t := range unit.BaseTemplates() {
		known[t.Name] = t
	}
	sig := sha256.New()
	hits := func(c *coverage.Counts, events []int) []uint64 {
		hs := make([]uint64, len(events))
		for i, id := range events {
			hs[i] = c.Hits(id)
		}
		return hs
	}
	rounds := fs.rounds
	if rounds < 1 || fs.cross != "" {
		rounds = 1
	}
	ctx := context.Background()
	for round := 0; round < rounds; round++ {
		if round > 0 && len(uncovered()) == 0 {
			break
		}
		// 1. The approximated target.
		var target *neighbors.Target
		targets := uncovered()
		if err := step("target", func(s *span) error {
			if fs.cross != "" {
				if len(targets) == 0 {
					targets = ids
				}
				call(s, "neighbors.Uniform", func() { target = neighbors.Uniform(ids) })
				return nil
			}
			if len(targets) == 0 {
				targets = ids[len(ids)-1:]
			}
			var ws []neighbors.Weighted
			call(s, "neighbors.Ordinal", func() { ws, err = neighbors.Ordinal(model, fs.family, targets, fs.decay) })
			if err != nil {
				return err
			}
			call(s, "neighbors.NewTarget", func() { target = neighbors.NewTarget(ws) })
			return nil
		}); err != nil {
			return nil, err
		}
		simsAtStart := env.Simulations()
		sigUints(sig, repo.Total().Sims())
		sigUints(sig, hits(repo.Total(), targets)...)

		// 2. Coarse search: rank the existing templates, merge the best.
		var candidate *template.Template
		if err := step("tac", func(s *span) error {
			var ranked []tac.TemplateScore
			call(s, "tac.BestTemplates", func() {
				ranked, err = tac.New(repo).BestTemplates(target.Events(), target.Weights(), 0)
			})
			if err != nil {
				return err
			}
			var chosen []*template.Template
			for _, ts := range ranked {
				if t, ok := known[ts.Name]; ok && len(chosen) < fs.top {
					chosen = append(chosen, t)
				}
			}
			if len(chosen) == 0 {
				return errors.New("no template shows evidence for the approximated target")
			}
			call(s, "core.MergeTemplates", func() { candidate = core.MergeTemplates(fs.unit+"_cdg_candidate", chosen) })
			return nil
		}); err != nil {
			return nil, err
		}

		// 3. The fine-grained search space.
		var skel *skeleton.Skeleton
		if err := step("skeleton", func(s *span) error {
			call(s, "skeleton.Skeletonize", func() {
				skel, err = skeleton.Skeletonize(candidate, skeleton.Options{Subranges: fs.subranges})
			})
			return err
		}); err != nil {
			return nil, err
		}
		r := rng.New(seed).SplitString("cdg-runner")

		// 4. Random sample: submit every point, then wait in order.
		var bestX []float64
		if err := step("sample", func(s *span) error {
			rs := r.SplitString("sample")
			xs := make([][]float64, fs.samples)
			jobs := make([]*sim.Job, fs.samples)
			for i := range jobs {
				xs[i] = skel.RandomWeights(rs)
				var tmpl *template.Template
				call(s, "skeleton.Instantiate", func() { tmpl, err = skel.Instantiate(fmt.Sprintf("sample_%03d", i), xs[i]) })
				if err != nil {
					return err
				}
				call(s, "sim.Submit", func() { jobs[i], err = env.Submit(tmpl, fs.sampleSims) })
				if err != nil {
					return err
				}
			}
			phase := coverage.NewCountsFor(model)
			bestScore := math.Inf(-1)
			for i, job := range jobs {
				var counts *coverage.Counts
				call(s, "sim.Wait", func() { counts = job.Wait() })
				call(s, "coverage.Merge", func() { phase.Merge(counts) })
				var score float64
				call(s, "neighbors.Score", func() { score = target.Score(counts) })
				if score > bestScore {
					bestScore, bestX = score, xs[i]
				}
			}
			sigUints(sig, phase.Sims())
			sigUints(sig, hits(phase, targets)...)
			return nil
		}); err != nil {
			return nil, err
		}

		// 5. Optimize: the engine proposes, the farm evaluates.
		var res opt.Result
		if err := step("optimize", func(s *span) error {
			params, err := opt.MergeParams(map[string]any{"iterations": fs.iters, "directions": fs.dirs}, nil)
			if err != nil {
				return err
			}
			var eng opt.Engine
			call(s, "opt.New", func() {
				eng, err = opt.New(fs.engine, opt.EngineConfig{
					X0: bestX, Lo: 0, Hi: float64(skel.MaxWeight()), RNG: r.SplitString("optimize"),
				}, params)
			})
			if err != nil {
				return err
			}
			phase := coverage.NewCountsFor(model)
			for {
				var points [][]float64
				call(s, "opt.Propose", func() { points, err = eng.Propose(ctx, fs.dirs) })
				if err != nil {
					return err
				}
				if len(points) == 0 {
					break
				}
				jobs := make([]*sim.Job, len(points))
				for i, x := range points {
					var tmpl *template.Template
					call(s, "skeleton.Instantiate", func() { tmpl, err = skel.Instantiate("cand", x) })
					if err != nil {
						return err
					}
					call(s, "sim.Submit", func() { jobs[i], err = env.Submit(tmpl, fs.optSims) })
					if err != nil {
						return err
					}
				}
				vals := make([]float64, len(points))
				for i, job := range jobs {
					var counts *coverage.Counts
					call(s, "sim.Wait", func() { counts = job.Wait() })
					call(s, "coverage.Merge", func() { phase.Merge(counts) })
					call(s, "neighbors.Score", func() { vals[i] = target.Score(counts) })
				}
				call(s, "opt.Observe", func() { err = eng.Observe(vals) })
				if err != nil {
					return err
				}
			}
			res = eng.Result()
			sigUints(sig, phase.Sims())
			sigUints(sig, hits(phase, targets)...)
			return nil
		}); err != nil {
			return nil, err
		}

		// 6. Harvest: measure the best template standalone and let it
		// join the regression suite for the next round.
		if err := step("harvest", func(s *span) error {
			var best *template.Template
			call(s, "skeleton.Instantiate", func() {
				best, err = skel.Instantiate(fmt.Sprintf("%s_cdg_best_%d", fs.unit, round+1), res.X)
			})
			if err != nil {
				return err
			}
			var job *sim.Job
			call(s, "sim.Submit", func() { job, err = env.Submit(best, fs.bestSims) })
			if err != nil {
				return err
			}
			var counts *coverage.Counts
			call(s, "sim.Wait", func() { counts = job.Wait() })
			sigUints(sig, counts.Sims())
			sigUints(sig, hits(counts, targets)...)
			repo.RecordCounts(best.Name, counts)
			known[best.Name] = best
			return nil
		}); err != nil {
			return nil, err
		}
		for _, id := range targets {
			io.WriteString(sig, model.Name(id))
		}
		for _, w := range res.X {
			sigUints(sig, math.Float64bits(w))
		}
		sigUints(sig, env.Simulations()-simsAtStart)
	}
	root.finish()
	out.total = root.seconds()
	out.sims = env.Simulations()
	out.flowSig = hex.EncodeToString(sig.Sum(nil))
	if reg != nil {
		out.chunks = reg.Counter("sim.chunks_completed").Value()
		out.remoteChunks = fleet.remoteChunks() - remoteBefore
	}
	return out, nil
}

// layerOp is one unit of a layer's work, done through its exported
// functions; probes.go times it over a fixed number of iterations.
type layerOp func() error

// layerSet is every probe operation, by name, plus what they report on
// the side.
type layerSet struct {
	ops map[string]layerOp
	// lastPropose collects, per opt.bayes.run iteration, the seconds its
	// final Propose call took (the GP's largest training set).
	lastPropose []float64
	close       func() // stops what the operations started
}

// newLayerSet builds the probe operations. tmp is a scratch directory on
// the data-root filesystem, disk one on the checkout's real disk.
func newLayerSet(tmp, disk string, seed uint64) (*layerSet, error) {
	ops := map[string]layerOp{}
	set := &layerSet{ops: ops}
	var cleanups []func()
	set.close = func() {
		for i := len(cleanups) - 1; i >= 0; i-- {
			cleanups[i]()
		}
	}
	fail := func(err error) (*layerSet, error) {
		set.close()
		return nil, err
	}
	next := seed << 20 // every simulated instance draws a fresh generator seed

	// DUV step, generator, Counts.Add: each unit's first base template.
	var ioVec coverage.Vector
	for _, name := range []string{"iounit", "l3cache", "ifu"} {
		unit, err := duv.New(name)
		if err != nil {
			return fail(err)
		}
		tmpl := unit.BaseTemplates()[0]
		plan := generator.Compile(tmpl, unit.Defaults())
		ops["duv."+name+".sim"] = func() error {
			next++
			v := unit.Simulate(generator.NewFromPlan(plan, next))
			if name == "iounit" {
				ioVec = v
			}
			return nil
		}
	}
	iounit, err := duv.New("iounit")
	if err != nil {
		return fail(err)
	}
	ioModel := iounit.Model()
	ioTmpl := iounit.BaseTemplates()[0]
	richTmpl := iounit.BaseTemplates()[4] // sets Command and Gap
	ops["generator.compile"] = func() error {
		generator.Compile(richTmpl, iounit.Defaults())
		return nil
	}
	decider := generator.NewFromPlan(generator.Compile(richTmpl, iounit.Defaults()), seed)
	ops["generator.decision"] = func() error { // two decisions
		decider.PickValue("Command")
		decider.PickInt("Gap")
		return nil
	}
	if err := ops["duv.iounit.sim"](); err != nil { // a vector for Counts.Add
		return fail(err)
	}
	addCounts := coverage.NewCountsFor(ioModel)
	ops["coverage.counts_add"] = func() error {
		addCounts.Add(ioVec)
		return nil
	}
	mergeDst, mergeSrc := coverage.NewCountsFor(ioModel), coverage.NewCountsFor(ioModel)
	ops["coverage.counts_merge"] = func() error {
		mergeDst.Merge(mergeSrc)
		return nil
	}

	// Scheduler: 256-sim batches inline (no environment), on one and on
	// two workers; a 1-sim job.
	inlineCounts := coverage.NewCountsFor(ioModel)
	ioPlan := generator.Compile(ioTmpl, iounit.Defaults())
	ops["sim.inline256"] = func() error {
		for i := 0; i < 256; i++ {
			next++
			inlineCounts.Add(iounit.Simulate(generator.NewFromPlan(ioPlan, next)))
		}
		return nil
	}
	for _, w := range []int{1, 2} {
		env := sim.NewEnv(iounit, seed, w)
		cleanups = append(cleanups, env.Close)
		ops[fmt.Sprintf("sim.run256.w%d", w)] = func() error {
			_, err := env.Run(ioTmpl, 256)
			return err
		}
		if w == 2 {
			ops["sim.handoff"] = func() error {
				job, err := env.Submit(ioTmpl, 1)
				if err != nil {
					return err
				}
				job.Wait()
				return nil
			}
		}
	}

	// Farm: one chunk through the dispatcher, over the in-memory pipe and
	// over TCP.
	chunkDst := coverage.NewCountsFor(ioModel)
	for _, pipe := range []bool{true, false} {
		fl, err := startFleet(pipe, false)
		if err != nil {
			return fail(err)
		}
		cleanups = append(cleanups, fl.stop)
		chunk := func(n int) layerOp {
			return func() error {
				next++
				chunkDst.Reset()
				return fl.disp.RunChunkInto(sim.RemoteChunk{Unit: "iounit", Template: ioTmpl,
					Seed: next, Lo: 0, Hi: n, Events: ioModel.Size()}, chunkDst)
			}
		}
		if pipe {
			ops["farm.chunk1.pipe"] = chunk(1)
		} else {
			ops["farm.chunk1.tcp"] = chunk(1)
			ops["farm.chunk115.tcp"] = chunk(115)
		}
	}

	// Engines: a full Propose/Observe run against a synthetic quadratic
	// at the flow's skeleton dimension.
	skel, err := skeleton.Skeletonize(richTmpl, skeleton.Options{Subranges: 4})
	if err != nil {
		return fail(err)
	}
	ops["opt.if.run"] = func() error { // 7 iterations x 20 points, as Fig 3
		_, err := runEngine("implicit_filtering", skel.Dim(), 7, 19, seed)
		return err
	}
	ops["opt.bayes.run"] = func() error { // 25 iterations x 12 points, as Fig 4
		last, err := runEngine("bayes", skel.Dim(), 25, 11, seed)
		set.lastPropose = append(set.lastPropose, last.Seconds())
		return err
	}

	// Durable files.
	record := struct {
		I    int      `json:"i"`
		Hits []uint64 `json:"hits"`
	}{Hits: make([]uint64, ioModel.Size())}
	for label, dir := range map[string]string{"tmpfs": tmp, "disk": disk} {
		w, err := journal.Create(filepath.Join(dir, "probe."+label+".journal"), nil)
		if err != nil {
			return fail(err)
		}
		cleanups = append(cleanups, func() { w.Close(); os.Remove(w.Path()) })
		ops["journal.append."+label] = func() error {
			record.I++
			return w.Append("sample", record)
		}
	}
	recoverPath := filepath.Join(tmp, "recover.journal")
	if w, err := journal.Create(recoverPath, nil); err != nil {
		return fail(err)
	} else {
		for i := 0; i < recoverRecords; i++ {
			if err := w.Append("sample", record); err != nil {
				return fail(err)
			}
		}
		if err := w.Close(); err != nil {
			return fail(err)
		}
	}
	ops["journal.recover"] = func() error { // recoverRecords records
		recs, w, err := journal.Recover(recoverPath, nil, nil)
		if err != nil {
			return err
		}
		if len(recs) != recoverRecords {
			return fmt.Errorf("recovered %d records, want %d", len(recs), recoverRecords)
		}
		return w.Close()
	}
	leases, err := lease.NewManager(lease.Options{Owner: "bench"})
	if err != nil {
		return fail(err)
	}
	cleanups = append(cleanups, leases.Close)
	leaseDir := filepath.Join(tmp, "lease")
	if err := os.MkdirAll(leaseDir, 0o755); err != nil {
		return fail(err)
	}
	ops["lease.acquire_release"] = func() error {
		h, err := leases.Acquire(leaseDir, "c000001")
		if err != nil {
			return err
		}
		h.Release()
		return nil
	}
	statePath := filepath.Join(tmp, "state.json")
	payload := bytes.Repeat([]byte("x"), 2048)
	ops["atomicfile.write"] = func() error {
		return atomicfile.WriteFile(statePath, func(w io.Writer) error {
			_, err := w.Write(payload)
			return err
		})
	}
	knowDir := filepath.Join(tmp, "knowledge")
	store, err := knowledge.Open(knowDir, "bench", nil, nil)
	if err != nil {
		return fail(err)
	}
	cleanups = append(cleanups, func() { store.Close() })
	entries := 0
	addEntry := func() error {
		entries++
		return store.Add([]knowledge.Entry{{
			Campaign: fmt.Sprintf("c%06d", entries), Unit: "iounit", Target: "family:crc_fifo",
			Template: "best", Weights: make([]float64, skel.Dim()), Score: 0.5, Sims: 100,
		}})
	}
	ops["knowledge.add"] = addEntry
	loadDir := filepath.Join(tmp, "knowledge100") // a store of exactly 100 entries
	if full, err := knowledge.Open(loadDir, "bench", nil, nil); err != nil {
		return fail(err)
	} else {
		for i := 0; i < 100; i++ {
			if err := full.Add([]knowledge.Entry{{Campaign: fmt.Sprintf("c%06d", i), Unit: "iounit",
				Template: "best", Weights: make([]float64, skel.Dim()), Score: 0.5, Sims: 100}}); err != nil {
				return fail(err)
			}
		}
		if err := full.Close(); err != nil {
			return fail(err)
		}
	}
	ops["knowledge.load"] = func() error {
		es, err := knowledge.Load(loadDir)
		if err == nil && len(es) != 100 {
			err = fmt.Errorf("loaded %d knowledge entries, want 100", len(es))
		}
		return err
	}

	// Per-campaign fixed costs, on Fig 3 / Fig 5 inputs.
	src := richTmpl.String()
	ops["template.parse"] = func() error {
		_, err := template.Parse(src)
		return err
	}
	ops["skeleton.skeletonize"] = func() error {
		_, err := skeleton.Skeletonize(richTmpl, skeleton.Options{Subranges: 4})
		return err
	}
	x := skel.RandomWeights(rng.New(seed))
	ops["skeleton.instantiate"] = func() error {
		_, err := skel.Instantiate("probe", x)
		return err
	}
	corpusEnv := sim.NewEnv(iounit, seed, 2)
	repo, err := corpusEnv.BuildCorpus(200)
	corpusEnv.Close()
	if err != nil {
		return fail(err)
	}
	fam, _ := ioModel.Family("crc_fifo")
	stats := tac.New(repo)
	ops["tac.best_templates"] = func() error {
		_, err := stats.BestTemplates(fam, nil, 3)
		return err
	}
	deepest := fam[len(fam)-1:]
	ops["neighbors.ordinal"] = func() error {
		_, err := neighbors.Ordinal(ioModel, "crc_fifo", deepest, 0.4)
		return err
	}
	ifu, err := duv.New("ifu")
	if err != nil {
		return fail(err)
	}
	cp, _ := ifu.Model().Cross("ifu")
	crossIDs, err := ifu.Model().IDs(cp.EventNames())
	if err != nil {
		return fail(err)
	}
	ops["neighbors.cross"] = func() error {
		_, err := neighbors.CrossNeighbors(ifu.Model(), "ifu", crossIDs[len(crossIDs)-32:], 0.5, 2)
		return err
	}
	target := neighbors.Uniform(crossIDs)
	crossCounts := coverage.NewCountsFor(ifu.Model())
	ops["neighbors.score"] = func() error {
		target.Score(crossCounts)
		return nil
	}
	return set, nil
}

// recoverRecords is the length of the journal the recover probe reads.
const recoverRecords = 200

// runEngine drives one engine to completion against a noiseless
// quadratic and returns how long its last non-empty Propose took.
func runEngine(name string, dim, iters, dirs int, seed uint64) (time.Duration, error) {
	params, err := opt.MergeParams(map[string]any{"iterations": iters, "directions": dirs}, nil)
	if err != nil {
		return 0, err
	}
	x0 := make([]float64, dim)
	for i := range x0 {
		x0[i] = 20
	}
	eng, err := opt.New(name, opt.EngineConfig{X0: x0, Lo: 0, Hi: 100, RNG: rng.New(seed)}, params)
	if err != nil {
		return 0, err
	}
	var last time.Duration
	for {
		t0 := time.Now()
		points, err := eng.Propose(context.Background(), dirs)
		if err != nil {
			return 0, err
		}
		if len(points) == 0 {
			return last, nil
		}
		last = time.Since(t0)
		vals := make([]float64, len(points))
		for i, p := range points {
			for _, v := range p {
				vals[i] -= (v - 60) * (v - 60)
			}
		}
		if err := eng.Observe(vals); err != nil {
			return 0, err
		}
	}
}
