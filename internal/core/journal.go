// Flow journaling: the crash-safe checkpoint/resume layer (DESIGN.md
// §10). A journaled flow appends one record per unit of paid-for
// simulation — corpus template aggregates, per-sample aggregates,
// optimizer iteration states, harvest results — plus structural records
// (header, run boundaries) that reject a journal belonging to a
// different run. Replay is transparent: a flow constructed with
// Config.Journal naming an existing file consumes the journal's
// history from the normal entry points (Run, RunPerEventShared) instead of
// simulating, then switches to live execution mid-phase, producing a
// Report bit-identical to an uninterrupted run.
package core

import (
	"encoding/json"
	"fmt"
	"hash/fnv"
	"os"
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
// Plumbing fields (Journal itself, Repository — whose induced targets
// the run_start record validates instead) are excluded too.
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
	// Engine selection, engine params, and the knowledge priors all steer
	// proposals, so a journal written under different ones must not
	// replay. The default engine with no extras hashes the same as before
	// this field existed, keeping old journals resumable.
	if name := c.engineName(); name != opt.DefaultEngine || len(c.EngineParams) > 0 ||
		len(c.Prior) > 0 || len(c.TACPrior) > 0 {
		fmt.Fprintf(h, "|%s|%s", name, c.EngineParams)
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

// runStartRec opens one Run's record group. The targets and the
// approximated target are recomputed on replay (they are pure functions
// of the repository) and validated against the record, catching a
// journal that belongs to a different campaign before any divergence.
type runStartRec struct {
	Targets       []int     `json:"targets"`
	ApproxEvents  []int     `json:"approx_events"`
	ApproxWeights []float64 `json:"approx_weights"`
}

// sampleRec is one random-sample point's aggregate, with the
// environment's seeding counters captured right after the sample's
// batch was submitted (replay restores them so later submissions draw
// the original seeds).
type sampleRec struct {
	I       int      `json:"i"`
	Hits    []uint64 `json:"hits"`
	Sims    uint64   `json:"sims"`
	Batches uint64   `json:"batches"`
	EnvSims uint64   `json:"env_sims"`
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

// harvestRec is the harvested template's standalone evaluation.
type harvestRec struct {
	Name    string   `json:"name"`
	Hits    []uint64 `json:"hits"`
	Sims    uint64   `json:"sims"`
	Batches uint64   `json:"batches"`
	EnvSims uint64   `json:"env_sims"`
}

// runDoneRec closes a Run's record group; replay validates the round
// counter and simulation total as an end-to-end integrity check.
type runDoneRec struct {
	Round     int    `json:"round"`
	TotalSims uint64 `json:"total_sims"`
}

// openJournal arms the flow's journal at path: a missing or empty file
// starts fresh, an existing one is recovered and replayed. This is the
// construction path behind Config.Journal — a daemon that re-opens its
// campaign directories after a restart resumes interrupted runs with no
// extra bookkeeping.
func (f *Flow) openJournal(path string) error {
	if st, err := os.Stat(path); err == nil && st.Size() > 0 {
		return f.resumeJournal(path)
	} else if err != nil && !os.IsNotExist(err) {
		return err
	}
	return f.startJournal(path)
}

// startJournal creates a fresh journal at path and arms the flow to
// checkpoint into it. The flow owns the journal and closes it with
// Close.
func (f *Flow) startJournal(path string) error {
	w, err := journal.Create(path, f.rec)
	if err != nil {
		return err
	}
	cur := journal.NewCursor(w, nil)
	if err := cur.Append("flow_header", f.header()); err != nil {
		w.Close()
		return err
	}
	f.cur = cur
	return nil
}

// resumeJournal recovers the journal at path (truncating any torn tail)
// and arms the flow to replay it: the next run calls — with the same
// arguments as the interrupted run — consume the journal's history
// instead of simulating, re-enter mid-phase where it ends, and continue
// live, appending to the same journal. The journal's header must match
// this flow's unit, seed, coverage model, and result-relevant config.
func (f *Flow) resumeJournal(path string) error {
	recs, w, err := journal.Recover(path, f.rec, f.cfg.Log)
	if err != nil {
		return err
	}
	cur := journal.NewCursor(w, recs)
	if len(recs) == 0 {
		// No record survived: the writer died between journal.Create and
		// its header append. Nothing was checkpointed, so start afresh.
		if err := cur.Append("flow_header", f.header()); err != nil {
			w.Close()
			return err
		}
		f.cur = cur
		return nil
	}
	var got flowHeader
	ok, err := cur.Take("flow_header", &got)
	if err != nil {
		w.Close()
		return err
	}
	if want := f.header(); !ok || got != want {
		w.Close()
		return fmt.Errorf("core: journal %s does not match this flow (unit %q, seed %d, config hash %#x)",
			path, want.Unit, want.Seed, want.CfgHash)
	}
	f.cur = cur
	f.rec.Counter("flow.resumes").Inc()
	return nil
}

// Journal exposes the flow's journal cursor (nil when journaling is
// off) — the chaos harness arms fault injection through it.
func (f *Flow) Journal() *journal.Cursor { return f.cur }

// Round returns the number of successfully harvested rounds.
func (f *Flow) Round() int { return f.round }
