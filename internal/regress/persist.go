// Suite persistence: the harvested regression suite written as a JSON
// artifact — template sources plus per-template statistics — so a CDG
// campaign's output survives the process. Writes are atomic
// (write-rename): a crash mid-save leaves the previous suite intact.
package regress

import (
	"fmt"

	"repro/internal/atomicfile"
	"repro/internal/coverage"
	"repro/internal/template"
)

// suiteJSON is the on-disk form.
type suiteJSON struct {
	Events  int         `json:"events"`
	Entries []entryJSON `json:"entries"`
}

// entryJSON is one member: the template's source text (empty when only
// statistics are known) and its raw counters.
type entryJSON struct {
	Name     string   `json:"name"`
	Template string   `json:"template,omitempty"`
	Hits     []uint64 `json:"hits"`
	Sims     uint64   `json:"sims"`
}

// SaveFile writes the suite to path atomically (temp file + fsync +
// rename), preserving entry order.
func (s *Suite) SaveFile(path string) error {
	doc := suiteJSON{Events: s.model.Size()}
	for _, e := range s.entries {
		hits, sims := e.Counts.Raw()
		ej := entryJSON{Name: e.Name, Hits: hits, Sims: sims}
		if e.Template != nil {
			ej.Template = e.Template.String()
		}
		doc.Entries = append(doc.Entries, ej)
	}
	return atomicfile.WriteJSON(path, doc)
}

// LoadSuiteFile reads a suite saved by SaveFile, re-parsing the stored
// template sources. The model must match the one the suite was built
// against (same event count).
func LoadSuiteFile(path string, m *coverage.Model) (*Suite, error) {
	var doc suiteJSON
	if err := atomicfile.ReadJSON(path, &doc); err != nil {
		return nil, fmt.Errorf("regress: %w", err)
	}
	if doc.Events != m.Size() {
		return nil, fmt.Errorf("regress: %s tracks %d events, model has %d", path, doc.Events, m.Size())
	}
	s := NewSuite(m)
	for _, ej := range doc.Entries {
		if len(ej.Hits) != m.Size() {
			return nil, fmt.Errorf("regress: %s: entry %q has %d hit counters, want %d",
				path, ej.Name, len(ej.Hits), m.Size())
		}
		var tmpl *template.Template
		if ej.Template != "" {
			var err error
			if tmpl, err = template.Parse(ej.Template); err != nil {
				return nil, fmt.Errorf("regress: %s: entry %q: %w", path, ej.Name, err)
			}
		}
		if err := s.Add(ej.Name, tmpl, coverage.CountsFromRaw(ej.Hits, ej.Sims)); err != nil {
			return nil, fmt.Errorf("regress: %s: %w", path, err)
		}
	}
	return s, nil
}
