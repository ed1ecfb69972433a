package sim

import (
	"fmt"

	"repro/internal/coverage"
	"repro/internal/journal"
	"repro/internal/template"
)

// Batch is one paid-for batch of a journaled phase: Sims instances of
// Tmpl, journaled as the record keyed (I, Name).
type Batch struct {
	I    int
	Name string // "" for batches keyed by index alone
	Tmpl *template.Template
	Sims int
}

// BatchRec is the journal record of one batch: its key, its aggregate,
// and the environment's seeding counters right after the batch was
// submitted, so a run that replays it draws the exact batch seeds the
// original drew for everything after it.
type BatchRec struct {
	I       int      `json:"i"`
	Name    string   `json:"name,omitempty"`
	Hits    []uint64 `json:"hits"`
	Sims    uint64   `json:"sims"`
	Batches uint64   `json:"batches"`
	EnvSims uint64   `json:"env_sims"`
}

// Counts returns the batch's aggregate.
func (r BatchRec) Counts() *coverage.Counts { return coverage.CountsFromRaw(r.Hits, r.Sims) }

// RunBatches is the one replay-or-run loop of every phase that pays for
// simulations in batches (the corpus build, the random sample, the
// harvest): it returns the records of batches, in order, each of type typ
// in cur, taking every batch from the first of these that has it:
//
//  1. the journal: cur's next typ record, replayed;
//  2. precomputed: the records done returns — called once, when the
//     journal runs out first — where record k is batch k's, replayed and
//     appended to cur, so the journal is the one a live run writes;
//  3. a live run: every remaining batch is submitted up front, in order,
//     then waited on and appended to cur in submission order.
//
// A replayed record must carry its batch's key and the unit's event
// count, and restores the environment's counters, so the run goes on
// exactly as the one that wrote it. A nil cursor journals nothing, and a
// nil done precomputes nothing.
func (e *Env) RunBatches(cur *journal.Cursor, typ string, batches []Batch, done func() []BatchRec) ([]BatchRec, error) {
	recs := make([]BatchRec, 0, len(batches))
	replay := func(rec BatchRec) error {
		b := batches[len(recs)]
		if rec.I != b.I || rec.Name != b.Name || len(rec.Hits) != e.unit.Model().Size() {
			return fmt.Errorf("sim: journal %s record %d (%q) does not match batch %d (%q)", typ, rec.I, rec.Name, b.I, b.Name)
		}
		e.RestoreCounters(rec.Batches, rec.EnvSims)
		recs = append(recs, rec)
		return nil
	}
	for len(recs) < len(batches) {
		var rec BatchRec
		ok, err := cur.Take(typ, &rec)
		if err != nil {
			return nil, err
		}
		if !ok {
			break
		}
		if err := replay(rec); err != nil {
			return nil, err
		}
	}
	if len(recs) < len(batches) && done != nil {
		pre := done()
		for len(recs) < min(len(batches), len(pre)) {
			rec := pre[len(recs)]
			if err := replay(rec); err != nil {
				return nil, err
			}
			if err := cur.Append(typ, rec); err != nil {
				return nil, err
			}
		}
	}
	type pending struct {
		job              *Job
		batches, envSims uint64
	}
	live := batches[len(recs):]
	jobs := make([]pending, 0, len(live))
	for _, b := range live {
		job, err := e.Submit(b.Tmpl, b.Sims)
		if err != nil {
			return nil, err
		}
		jobs = append(jobs, pending{job, e.batch.Load(), e.sims.Load()})
	}
	for k, p := range jobs {
		counts := p.job.Wait()
		if err := e.ctxErr(); err != nil {
			return nil, err
		}
		hits, n := counts.Raw()
		rec := BatchRec{I: live[k].I, Name: live[k].Name, Hits: hits, Sims: n, Batches: p.batches, EnvSims: p.envSims}
		if err := cur.Append(typ, rec); err != nil {
			return nil, err
		}
		recs = append(recs, rec)
	}
	return recs, nil
}
