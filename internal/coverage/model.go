// Package coverage implements the coverage substrate of the AS-CDG
// reproduction: coverage events and models, per-simulation coverage
// vectors, aggregated hit counts, the coverage repository the
// verification team queries during coverage closure (paper Section III),
// and the IBM status convention used to color the paper's result tables
// (Section V).
package coverage

import (
	"fmt"
	"sort"
)

// Event is one coverage event of a DUV's coverage model.
type Event struct {
	// ID is the event's index within its model; vectors and counts are
	// indexed by ID.
	ID int
	// Name is the event's unique name within the model (e.g. "crc_064").
	Name string
}

// Model is the coverage model of a DUV: an immutable, ordered set of
// named events, with optional named families (ordered groups of related
// events, e.g. the fill levels of one buffer) and cross products.
type Model struct {
	events   []Event
	byName   map[string]int
	families map[string][]int // family name -> ordered event IDs
	crosses  map[string]*CrossProduct
}

// NewModel creates a model containing the given events, in order. Event
// names must be unique and non-empty.
func NewModel(names []string) (*Model, error) {
	m := &Model{
		byName:   make(map[string]int, len(names)),
		families: map[string][]int{},
		crosses:  map[string]*CrossProduct{},
	}
	for i, name := range names {
		if name == "" {
			return nil, fmt.Errorf("coverage: event %d has empty name", i)
		}
		if _, dup := m.byName[name]; dup {
			return nil, fmt.Errorf("coverage: duplicate event name %q", name)
		}
		m.byName[name] = i
		m.events = append(m.events, Event{ID: i, Name: name})
	}
	return m, nil
}

// MustModel is like NewModel but panics on error; intended for
// statically-known DUV models.
func MustModel(names []string) *Model {
	m, err := NewModel(names)
	if err != nil {
		panic(err)
	}
	return m
}

// Size returns the number of events in the model.
func (m *Model) Size() int { return len(m.events) }

// Events returns the model's events in ID order. The returned slice must
// not be modified.
func (m *Model) Events() []Event { return m.events }

// Lookup returns the ID of the named event and whether it exists.
func (m *Model) Lookup(name string) (int, bool) {
	id, ok := m.byName[name]
	return id, ok
}

// MustLookup returns the ID of the named event, panicking if absent.
func (m *Model) MustLookup(name string) int {
	id, ok := m.byName[name]
	if !ok {
		panic(fmt.Sprintf("coverage: unknown event %q", name))
	}
	return id
}

// Name returns the name of the event with the given ID.
func (m *Model) Name(id int) string {
	return m.events[id].Name
}

// AddFamily registers an ordered family of related events (e.g.
// successive fill levels of a buffer). Order matters: it encodes the
// "natural order" neighbor relation of paper Section IV-A.
func (m *Model) AddFamily(name string, eventNames []string) error {
	if name == "" {
		return fmt.Errorf("coverage: family has empty name")
	}
	if _, dup := m.families[name]; dup {
		return fmt.Errorf("coverage: duplicate family %q", name)
	}
	if len(eventNames) == 0 {
		return fmt.Errorf("coverage: family %q has no events", name)
	}
	ids := make([]int, len(eventNames))
	for i, en := range eventNames {
		id, ok := m.byName[en]
		if !ok {
			return fmt.Errorf("coverage: family %q: unknown event %q", name, en)
		}
		ids[i] = id
	}
	m.families[name] = ids
	return nil
}

// Family returns the ordered event IDs of the named family and whether
// the family exists.
func (m *Model) Family(name string) ([]int, bool) {
	ids, ok := m.families[name]
	return ids, ok
}

// FamilyNames returns the registered family names, sorted.
func (m *Model) FamilyNames() []string {
	names := make([]string, 0, len(m.families))
	for n := range m.families {
		names = append(names, n)
	}
	sort.Strings(names)
	return names
}

// AddCross registers a cross-product coverage group; the cross's events
// must already exist in the model (use CrossProduct.EventNames to
// generate them).
func (m *Model) AddCross(cp *CrossProduct) error {
	if cp == nil || cp.Name == "" {
		return fmt.Errorf("coverage: cross product has empty name")
	}
	if _, dup := m.crosses[cp.Name]; dup {
		return fmt.Errorf("coverage: duplicate cross product %q", cp.Name)
	}
	for _, en := range cp.EventNames() {
		if _, ok := m.byName[en]; !ok {
			return fmt.Errorf("coverage: cross %q: unknown event %q", cp.Name, en)
		}
	}
	m.crosses[cp.Name] = cp
	return nil
}

// Cross returns the named cross product and whether it exists.
func (m *Model) Cross(name string) (*CrossProduct, bool) {
	cp, ok := m.crosses[name]
	return cp, ok
}

// CrossNames returns the registered cross product names, sorted.
func (m *Model) CrossNames() []string {
	names := make([]string, 0, len(m.crosses))
	for n := range m.crosses {
		names = append(names, n)
	}
	sort.Strings(names)
	return names
}

// IDs maps a list of event names to their IDs, failing on the first
// unknown name.
func (m *Model) IDs(names []string) ([]int, error) {
	ids := make([]int, len(names))
	for i, n := range names {
		id, ok := m.byName[n]
		if !ok {
			return nil, fmt.Errorf("coverage: unknown event %q", n)
		}
		ids[i] = id
	}
	return ids, nil
}
