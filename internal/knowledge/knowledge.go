// Package knowledge is the cross-campaign flywheel store (DESIGN.md
// §14): a per-template hit-statistics base under the shared data root
// that every campaign feeds on harvest and later campaigns consume —
// as warm-start priors for learning optimization engines (ranker,
// bayes) and as damped score boosts for the coarse-grained TAC search.
//
// The store follows the same multi-replica discipline as the campaign
// store: each replica appends only to its own CRC-framed journal
// (<root>/<owner>.journal), so writes never race across processes, and
// reads merge every replica's journal with the compacted snapshot.json
// the janitor refreshes. Entries are keyed (campaign, round, template),
// so replayed feeds — an adopted campaign re-finishing, a janitor
// re-merge — deduplicate instead of double-counting.
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
	// Sources are the TAC-chosen base templates the candidate merged —
	// the names the TAC flywheel boosts in later campaigns.
	Sources []string `json:"sources,omitempty"`
}

func (e Entry) key() string {
	return fmt.Sprintf("%s/%d/%s", e.Campaign, e.Round, e.Template)
}

const (
	snapshotFile = "snapshot.json"
	recType      = "knowledge_entry"
)

// DefaultDamp is the producer-side damping factor applied when past
// scores become TAC boosts: strong enough to break ties toward
// historically productive templates, weak enough that fresh in-campaign
// evidence dominates.
const DefaultDamp = 0.25

// Store is one replica's handle on the shared knowledge base. Safe for
// concurrent use within the process; cross-process safety comes from
// the own-journal-only write discipline.
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
// truncated, like any flow journal.
func Open(dir, owner string, rec *obs.Recorder, log *slog.Logger) (*Store, error) {
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

// Add appends entries to this replica's journal, skipping keys it
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

// All returns the merged fleet-wide view: the compacted snapshot plus
// every replica's journal, deduplicated by key and sorted by
// (campaign, round, template). Peer journals are read with the
// read-only torn-tail decoder — never recovered, they belong to their
// owners.
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

// Compact refreshes snapshot.json with the merged view. The janitor
// calls it periodically so external consumers (tacquery, dashboards)
// read one file; journals are never truncated — each entry is one small
// record per campaign round, and the owner-only write discipline stays
// trivially correct.
func (s *Store) Compact() error {
	all, err := s.All()
	if err != nil {
		return err
	}
	if len(all) == 0 {
		return nil
	}
	return atomicfile.WriteJSON(filepath.Join(s.dir, snapshotFile), all)
}

// Close closes this replica's journal. The store's files remain for
// peers and successors.
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

// TACBoosts turns the unit's entries into damped per-template score
// boosts for the coarse-grained search: every base template a past
// harvest merged gets damp times its mean achieved score. The result is
// empty (nil) when the unit has no history, which leaves TAC rankings
// untouched.
func TACBoosts(entries []Entry, unit string, damp float64) map[string]float64 {
	if damp <= 0 {
		damp = DefaultDamp
	}
	sum := map[string]float64{}
	n := map[string]int{}
	for _, e := range entries {
		if e.Unit != unit {
			continue
		}
		for _, name := range e.Sources {
			sum[name] += e.Score
			n[name]++
		}
	}
	if len(sum) == 0 {
		return nil
	}
	boosts := make(map[string]float64, len(sum))
	for name, s := range sum {
		boosts[name] = damp * s / float64(n[name])
	}
	return boosts
}
