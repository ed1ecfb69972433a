// Flow journaling: the crash-safe checkpoint/resume layer (DESIGN.md
// §10). New opens the journal through journal.Open with the flowHeader
// below, which rejects a journal belonging to a different run. The flow
// then appends one record per unit of paid-for simulation: the batches
// of the corpus, the random sample and the harvest go through the one
// replay-or-run loop, sim.Env.RunBatches; each optimizer iteration is an
// opt_iter engine checkpoint (optimize); run_start and run_done bracket
// each pipeline round. Replay is transparent: a flow runs one campaign,
// so an interrupted campaign resumes in a new flow constructed with
// Config.Journal naming its file. That flow consumes the journal's
// history from the one entry point, Run, instead of simulating, then
// switches to live execution mid-phase, producing reports bit-identical
// to an uninterrupted run.
package core

import (
	"encoding/json"
	"fmt"
	"hash/fnv"
	"sort"

	"repro/internal/journal"
	"repro/internal/opt"
)

// flowHeader is the journal's first record. Resume compares it
// field-for-field against the resuming flow: a journal written under a
// different unit, seed, coverage model, or any result-relevant config
// knob must not replay into this run. Throughput-only knobs (Workers,
// Runner, RunnerLanes, CorpusCache, Obs) are deliberately excluded —
// the flow is bit-identical across them, so a run may resume on
// different hardware.
// Journal itself, a plumbing field, is excluded too.
type flowHeader struct {
	Kind    string `json:"kind"`
	Unit    string `json:"unit"`
	Seed    uint64 `json:"seed"`
	Events  int    `json:"events"`
	CfgHash uint64 `json:"cfg_hash"`
}

// cfgHash digests the result-relevant Config fields. The literal fields
// are knobs Config no longer has (subrange mode, zero-weight marking,
// initial and minimum step, center resampling, target value), hashed at
// the values every run had, so journals written before they went still
// resume.
func cfgHash(c Config) uint64 {
	h := fnv.New64a()
	fmt.Fprintf(h, "%d|%d|%d|%d|0|false|%d|%d|%d|%d|%d|0|0|false|0|%d",
		c.Seed, c.CorpusSimsPerTemplate, c.TopTemplates, c.Subranges,
		c.SampleTemplates, c.SampleSims,
		c.OptIterations, c.OptDirections, c.OptSims,
		c.BestSims)
	// Engine selection and the knowledge prior steer proposals, so a
	// journal written under different ones must not replay. The default
	// engine with no priors hashes the same as before the engine field
	// existed, keeping old journals resumable. The trailing "|" is where
	// the engine-params blob went: hashed empty, journals written with no
	// blob still resume. TACPrior steers nothing now; it is hashed as
	// older versions hashed it, so their journals still resume.
	if name := c.engineName(); name != opt.DefaultEngine || len(c.Prior) > 0 || len(c.TACPrior) > 0 {
		fmt.Fprintf(h, "|%s|", name)
		for _, p := range c.Prior {
			fmt.Fprintf(h, "|%v=%v", p.X, p.Value)
		}
		names := make([]string, 0, len(c.TACPrior))
		for n := range c.TACPrior {
			names = append(names, n)
		}
		sort.Strings(names)
		for _, n := range names {
			fmt.Fprintf(h, "|%s=%v", n, c.TACPrior[n])
		}
	}
	return h.Sum64()
}

func (f *Flow) header() flowHeader {
	return flowHeader{
		Kind:    "flow",
		Unit:    f.env.Unit().Name(),
		Seed:    f.cfg.Seed,
		Events:  f.env.Unit().Model().Size(),
		CfgHash: cfgHash(f.cfg),
	}
}

// runStartRec opens one round's record group. The targets, the
// approximated target and the templates the coarse search chose are
// recomputed on replay (they are pure functions of the repository and
// the earlier rounds) and validated against the record, catching a
// journal that belongs to a different campaign before any divergence.
// Chosen is absent from journals written before it was recorded.
type runStartRec struct {
	Targets       []int     `json:"targets"`
	ApproxEvents  []int     `json:"approx_events"`
	ApproxWeights []float64 `json:"approx_weights"`
	Chosen        []string  `json:"chosen,omitempty"`
}

// optIterRec checkpoints one optimizer iteration: the engine's opaque
// resumable state plus the cumulative optimization-phase aggregate and
// the environment counters after the iteration's submissions. Replay
// verifies Engine against the flow's configured engine — a checkpoint
// is only meaningful to the engine that wrote it.
type optIterRec struct {
	Engine    string          `json:"engine"`
	State     json.RawMessage `json:"state"`
	PhaseHits []uint64        `json:"phase_hits"`
	PhaseSims uint64          `json:"phase_sims"`
	Batches   uint64          `json:"batches"`
	EnvSims   uint64          `json:"env_sims"`
}

// runDoneRec closes a round's record group; replay validates the round
// number and simulation total as an end-to-end integrity check.
type runDoneRec struct {
	Round     int    `json:"round"`
	TotalSims uint64 `json:"total_sims"`
}

// Journal exposes the flow's journal cursor (nil when journaling is
// off) — TestInvarianceMatrix's kill rows arm fault injection through
// it.
func (f *Flow) Journal() *journal.Cursor { return f.cur }
