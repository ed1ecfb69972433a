package coverage

import (
	"fmt"
	"strings"
)

// Dim is one attribute of a cross-product coverage group, e.g.
// thread ∈ {t0, t1, t2, t3}.
type Dim struct {
	Name   string
	Values []string
}

// CrossProduct defines a cross-product coverage group (paper Section V,
// Fig. 5): one event per combination of attribute values. Event names are
// "<name>_<v0>_<v1>_..._<vk>" with the dimension values in declaration
// order.
type CrossProduct struct {
	Name string
	Dims []Dim
}

// NewCrossProduct builds a cross product after validating that every
// dimension has a name and at least one value.
func NewCrossProduct(name string, dims []Dim) (*CrossProduct, error) {
	if name == "" {
		return nil, fmt.Errorf("coverage: cross product needs a name")
	}
	if len(dims) == 0 {
		return nil, fmt.Errorf("coverage: cross %q needs at least one dimension", name)
	}
	for _, d := range dims {
		if d.Name == "" {
			return nil, fmt.Errorf("coverage: cross %q has a dimension with no name", name)
		}
		if len(d.Values) == 0 {
			return nil, fmt.Errorf("coverage: cross %q dimension %q has no values", name, d.Name)
		}
		seen := map[string]bool{}
		for _, v := range d.Values {
			if v == "" {
				return nil, fmt.Errorf("coverage: cross %q dimension %q has an empty value", name, d.Name)
			}
			if strings.Contains(v, "_") {
				return nil, fmt.Errorf("coverage: cross %q dimension %q value %q contains %q, which is the event-name separator",
					name, d.Name, v, "_")
			}
			if seen[v] {
				return nil, fmt.Errorf("coverage: cross %q dimension %q duplicates value %q", name, d.Name, v)
			}
			seen[v] = true
		}
	}
	return &CrossProduct{Name: name, Dims: dims}, nil
}

// Size returns the number of events in the cross product.
func (cp *CrossProduct) Size() int {
	n := 1
	for _, d := range cp.Dims {
		n *= len(d.Values)
	}
	return n
}

// EventName returns the event name for the given coordinate tuple
// (one index per dimension).
func (cp *CrossProduct) EventName(coords []int) string {
	parts := make([]string, 0, len(cp.Dims)+1)
	parts = append(parts, cp.Name)
	for i, d := range cp.Dims {
		parts = append(parts, d.Values[coords[i]])
	}
	return strings.Join(parts, "_")
}

// EventNames enumerates all event names in row-major order (last
// dimension varies fastest).
func (cp *CrossProduct) EventNames() []string {
	names := make([]string, 0, cp.Size())
	coords := make([]int, len(cp.Dims))
	for {
		names = append(names, cp.EventName(coords))
		// Increment coords, last dimension fastest.
		i := len(coords) - 1
		for ; i >= 0; i-- {
			coords[i]++
			if coords[i] < len(cp.Dims[i].Values) {
				break
			}
			coords[i] = 0
		}
		if i < 0 {
			return names
		}
	}
}

// Coords parses an event name of this cross product back into its
// coordinate tuple. It returns an error if the name does not belong to
// the cross product.
func (cp *CrossProduct) Coords(eventName string) ([]int, error) {
	rest, ok := strings.CutPrefix(eventName, cp.Name+"_")
	if !ok {
		return nil, fmt.Errorf("coverage: event %q is not in cross %q", eventName, cp.Name)
	}
	parts := strings.Split(rest, "_")
	if len(parts) != len(cp.Dims) {
		return nil, fmt.Errorf("coverage: event %q has %d attributes, cross %q has %d",
			eventName, len(parts), cp.Name, len(cp.Dims))
	}
	coords := make([]int, len(cp.Dims))
	for i, d := range cp.Dims {
		found := -1
		for j, v := range d.Values {
			if v == parts[i] {
				found = j
				break
			}
		}
		if found < 0 {
			return nil, fmt.Errorf("coverage: event %q: %q is not a value of dimension %q",
				eventName, parts[i], d.Name)
		}
		coords[i] = found
	}
	return coords, nil
}
