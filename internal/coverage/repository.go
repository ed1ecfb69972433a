package coverage

import (
	"encoding/json"
	"fmt"
	"io"
	"os"
	"sort"

	"repro/internal/atomicfile"
)

// Repository is the coverage repository of paper Section III: a summary
// of the coverage vectors produced by all simulated test-instances,
// aggregated per test-template. The verification team (and the AS-CDG
// flow) queries it for uncovered events and per-template statistics.
type Repository struct {
	model       *Model
	perTemplate map[string]*Counts
	total       *Counts
}

// NewRepository returns an empty repository for the given model.
func NewRepository(m *Model) *Repository {
	return &Repository{
		model:       m,
		perTemplate: map[string]*Counts{},
		total:       NewCountsFor(m),
	}
}

// Model returns the coverage model the repository is built over.
func (r *Repository) Model() *Model { return r.model }

// Record aggregates one simulation's coverage vector under the given
// template name.
func (r *Repository) Record(templateName string, v Vector) {
	c, ok := r.perTemplate[templateName]
	if !ok {
		c = NewCountsFor(r.model)
		r.perTemplate[templateName] = c
	}
	c.Add(v)
	r.total.Add(v)
}

// RecordCounts merges a pre-aggregated Counts under the given template
// name (used by the batch simulation environment).
func (r *Repository) RecordCounts(templateName string, counts *Counts) {
	c, ok := r.perTemplate[templateName]
	if !ok {
		c = NewCountsFor(r.model)
		r.perTemplate[templateName] = c
	}
	c.Merge(counts)
	r.total.Merge(counts)
}

// Total returns the aggregate over all templates.
func (r *Repository) Total() *Counts { return r.total }

// Template returns the aggregate for one template and whether the
// template has any recorded simulations.
func (r *Repository) Template(name string) (*Counts, bool) {
	c, ok := r.perTemplate[name]
	return c, ok
}

// TemplateNames returns the names of all templates with recorded
// simulations, sorted.
func (r *Repository) TemplateNames() []string {
	names := make([]string, 0, len(r.perTemplate))
	for n := range r.perTemplate {
		names = append(names, n)
	}
	sort.Strings(names)
	return names
}

// Sims returns the total number of recorded simulations.
func (r *Repository) Sims() uint64 { return r.total.Sims() }

// Uncovered returns the IDs of all never-hit events, ascending.
func (r *Repository) Uncovered() []int {
	var ids []int
	for id := 0; id < r.model.Size(); id++ {
		if r.total.Hits(id) == 0 {
			ids = append(ids, id)
		}
	}
	return ids
}

// LightlyHit returns the IDs of all lightly-hit events, ascending.
func (r *Repository) LightlyHit() []int {
	var ids []int
	for id := 0; id < r.model.Size(); id++ {
		if r.total.Status(id) == StatusLightly {
			ids = append(ids, id)
		}
	}
	return ids
}

// repoJSON is the serialized form of a repository. Event order is
// captured explicitly so a repository can be reloaded against a model
// revision check.
type repoJSON struct {
	Events    []string              `json:"events"`
	Sims      uint64                `json:"sims"`
	Templates map[string]countsJSON `json:"templates"`
	Families  map[string][]string   `json:"families,omitempty"`
}

type countsJSON struct {
	Sims uint64   `json:"sims"`
	Hits []uint64 `json:"hits"`
}

// Save writes the repository to w as JSON.
func (r *Repository) Save(w io.Writer) error {
	out := repoJSON{
		Sims:      r.total.Sims(),
		Templates: make(map[string]countsJSON, len(r.perTemplate)),
		Families:  map[string][]string{},
	}
	for _, e := range r.model.Events() {
		out.Events = append(out.Events, e.Name)
	}
	for name, c := range r.perTemplate {
		out.Templates[name] = countsJSON{Sims: c.sims, Hits: c.hits}
	}
	for _, fam := range r.model.FamilyNames() {
		ids, _ := r.model.Family(fam)
		names := make([]string, len(ids))
		for i, id := range ids {
			names[i] = r.model.Name(id)
		}
		out.Families[fam] = names
	}
	enc := json.NewEncoder(w)
	return enc.Encode(out)
}

// SaveFile writes the repository to the named file atomically (temp
// file + fsync + rename): a crash mid-save leaves any previous
// repository intact instead of a truncated JSON document.
func (r *Repository) SaveFile(path string) error {
	return atomicfile.WriteFile(path, r.Save)
}

// Load reads a repository previously written by Save. The stored event
// list must exactly match the given model's events, and every template
// must have simulations and no event hit more often than it was
// simulated: the file is outside input, and a hit rate above 100 % is
// no statistic.
func Load(rd io.Reader, m *Model) (*Repository, error) {
	var in repoJSON
	if err := json.NewDecoder(rd).Decode(&in); err != nil {
		return nil, fmt.Errorf("coverage: loading repository: %w", err)
	}
	if len(in.Events) != m.Size() {
		return nil, fmt.Errorf("coverage: repository has %d events, model has %d", len(in.Events), m.Size())
	}
	for i, name := range in.Events {
		if m.Name(i) != name {
			return nil, fmt.Errorf("coverage: repository event %d is %q, model has %q", i, name, m.Name(i))
		}
	}
	names := make([]string, 0, len(in.Templates))
	for name := range in.Templates {
		names = append(names, name)
	}
	sort.Strings(names) // the first bad template named is the same each load
	repo := NewRepository(m)
	for _, name := range names {
		cj := in.Templates[name]
		if len(cj.Hits) != m.Size() {
			return nil, fmt.Errorf("coverage: template %q has %d hit counters, model has %d events",
				name, len(cj.Hits), m.Size())
		}
		if cj.Sims == 0 {
			return nil, fmt.Errorf("coverage: template %q has no simulations", name)
		}
		for id, h := range cj.Hits {
			if h > cj.Sims {
				return nil, fmt.Errorf("coverage: template %q hits %s %d times in %d simulations",
					name, m.Name(id), h, cj.Sims)
			}
		}
		repo.RecordCounts(name, &Counts{hits: cj.Hits, sims: cj.Sims})
	}
	return repo, nil
}

// LoadFile reads a repository from the named file.
func LoadFile(path string, m *Model) (*Repository, error) {
	f, err := os.Open(path)
	if err != nil {
		return nil, err
	}
	defer f.Close()
	return Load(f, m)
}
