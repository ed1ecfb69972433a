// Package knowledge is the cross-campaign flywheel store (DESIGN.md
// §14): a per-template hit-statistics base under the shared data root
// that every campaign feeds on harvest and later campaigns consume as
// warm-start priors for learning optimization engines (ranker, bayes).
//
// A writer appends only to its own CRC-framed journal
// (<root>/<owner>.journal); the service, the one writer of its data
// root, writes under one fixed owner name. Reads merge every journal in
// the directory, and the snapshot.json that older versions compacted
// them into, so a root those versions wrote keeps its entries. Entries
// are keyed (campaign, round, template), so a replayed feed — a
// campaign re-finishing after a crash — deduplicates instead of
// double-counting.
package knowledge

import (
	"encoding/json"
	"errors"
	"fmt"
	"io/fs"
	"log/slog"
	"os"
	"path/filepath"
	"sort"
	"strings"
	"sync"

	"repro/internal/atomicfile"
	"repro/internal/journal"
	"repro/internal/obs"
	"repro/internal/opt"
)

// Entry is one campaign round's harvested evidence: the weight vector
// the optimizer converged to, the coverage score it achieved, and the
// base templates the coarse-grained search built it from.
type Entry struct {
	// Campaign and Round identify the harvest; together with Template
	// they key the entry for idempotent feeding.
	Campaign string `json:"campaign"`
	Round    int    `json:"round"`
	// Unit scopes the evidence: priors never cross units.
	Unit string `json:"unit"`
	// Target describes what the campaign chased (family, cross model, or
	// event list) — informational, surfaced by GET /v1/knowledge.
	Target string `json:"target,omitempty"`
	// Template is the harvested template's name.
	Template string `json:"template"`
	// Weights is the harvested weight vector (the skeleton-space point).
	Weights []float64 `json:"weights,omitempty"`
	// Score is the mean per-target-event hit rate of the harvest's
	// standalone evaluation (the "best" phase) — hits per simulation,
	// in [0, 1] per event.
	Score float64 `json:"score"`
	// Sims is the evaluation's simulation count (the score's support).
	Sims uint64 `json:"sims"`
	// Sources are the TAC-chosen templates the candidate merged: what
	// the harvest was built from, served by GET /v1/knowledge.
	Sources []string `json:"sources,omitempty"`
}

func (e Entry) key() string {
	return fmt.Sprintf("%s/%d/%s", e.Campaign, e.Round, e.Template)
}

const (
	snapshotFile = "snapshot.json"
	recType      = "knowledge_entry"
)

// Store is one writer's handle on the knowledge base. Safe for
// concurrent use within the process; a second writer in another process
// writes its own journal.
type Store struct {
	dir   string
	owner string
	rec   *obs.Recorder
	log   *slog.Logger

	mu   sync.Mutex
	w    *journal.Writer
	seen map[string]bool // keys already in our own journal
}

// Open opens (or creates) the knowledge base rooted at dir, writing
// through the journal owned by owner. A torn tail left by a crash is
// truncated, like any flow journal. owner names a file in dir, so it
// must be one path element: not empty, "." or "..", and free of '/'
// and '\'.
func Open(dir, owner string, rec *obs.Recorder, log *slog.Logger) (*Store, error) {
	if owner == "" || owner == "." || owner == ".." || strings.ContainsAny(owner, `/\`) {
		return nil, fmt.Errorf("knowledge: owner %q is not a single path element", owner)
	}
	if err := os.MkdirAll(dir, 0o755); err != nil {
		return nil, err
	}
	s := &Store{
		dir:   dir,
		owner: owner,
		rec:   rec,
		log:   obs.OrNop(log),
		seen:  map[string]bool{},
	}
	path := filepath.Join(dir, owner+".journal")
	if st, err := os.Stat(path); err == nil && st.Size() > 0 {
		recs, w, err := journal.Recover(path, rec, log)
		if err != nil {
			return nil, fmt.Errorf("knowledge: recovering %s: %w", path, err)
		}
		for _, r := range recs {
			var e Entry
			if json.Unmarshal(r.Data, &e) == nil && r.Type == recType {
				s.seen[e.key()] = true
			}
		}
		s.w = w
		return s, nil
	} else if err != nil && !os.IsNotExist(err) {
		return nil, err
	}
	w, err := journal.Create(path, rec)
	if err != nil {
		return nil, fmt.Errorf("knowledge: %w", err)
	}
	s.w = w
	return s, nil
}

// Add appends entries to this writer's journal, skipping keys it
// already holds. The append is durable (fsynced) before Add returns.
func (s *Store) Add(entries []Entry) error {
	s.mu.Lock()
	defer s.mu.Unlock()
	for _, e := range entries {
		if e.Campaign == "" || e.Template == "" {
			return fmt.Errorf("knowledge: entry needs campaign and template: %+v", e)
		}
		if s.seen[e.key()] {
			continue
		}
		if err := s.w.Append(recType, e); err != nil {
			return err
		}
		s.seen[e.key()] = true
		s.rec.Counter("knowledge.entries").Inc()
	}
	return nil
}

// All returns the merged view: any snapshot plus every journal,
// deduplicated by key and sorted by (campaign, round, template). The
// journals of other owners are read with the read-only torn-tail
// decoder — never recovered, they belong to their owners.
func (s *Store) All() ([]Entry, error) { return Load(s.dir) }

// Load reads the merged view of the store at dir without opening a
// journal — the read-only path for CLI consumers (tacquery) and tests.
func Load(dir string) ([]Entry, error) {
	var snap []Entry
	if err := atomicfile.ReadJSON(filepath.Join(dir, snapshotFile), &snap); err != nil && !errors.Is(err, fs.ErrNotExist) {
		return nil, fmt.Errorf("knowledge: %w", err)
	}
	byKey := map[string]Entry{}
	for _, e := range snap {
		byKey[e.key()] = e
	}
	files, err := os.ReadDir(dir)
	if err != nil {
		return nil, err
	}
	for _, f := range files {
		if f.IsDir() || !strings.HasSuffix(f.Name(), ".journal") {
			continue
		}
		data, err := os.ReadFile(filepath.Join(dir, f.Name()))
		if err != nil || len(data) < len(journal.Magic) ||
			string(data[:len(journal.Magic)]) != journal.Magic {
			continue // mid-create or foreign; the next merge catches it
		}
		recs, _ := journal.DecodeAll(data[len(journal.Magic):])
		for _, r := range recs {
			if r.Type != recType {
				continue
			}
			var e Entry
			if json.Unmarshal(r.Data, &e) == nil {
				byKey[e.key()] = e
			}
		}
	}
	out := make([]Entry, 0, len(byKey))
	for _, e := range byKey {
		out = append(out, e)
	}
	sort.Slice(out, func(i, j int) bool {
		a, b := out[i], out[j]
		if a.Campaign != b.Campaign {
			return a.Campaign < b.Campaign
		}
		if a.Round != b.Round {
			return a.Round < b.Round
		}
		return a.Template < b.Template
	})
	return out, nil
}

// Close closes this writer's journal. The store's files remain for
// successors.
func (s *Store) Close() error {
	s.mu.Lock()
	defer s.mu.Unlock()
	return s.w.Close()
}

// Priors converts the unit's entries into optimizer warm-start points,
// best scores first, at most max (<= 0: all). Points whose dimension
// does not match a later skeleton are filtered by the engine itself.
func Priors(entries []Entry, unit string, max int) []opt.PriorPoint {
	var pts []opt.PriorPoint
	for _, e := range entries {
		if e.Unit != unit || len(e.Weights) == 0 {
			continue
		}
		pts = append(pts, opt.PriorPoint{X: e.Weights, Value: e.Score})
	}
	sort.SliceStable(pts, func(i, j int) bool { return pts[i].Value > pts[j].Value })
	if max > 0 && len(pts) > max {
		pts = pts[:max]
	}
	return pts
}
