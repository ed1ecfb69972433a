// Package closure tracks coverage-closure progress over time: the
// bookkeeping the paper's introduction describes around project
// milestones ("coverage status is an important criterion for many
// project milestones, such as tapeouts").
//
// A Tracker records snapshots of a coverage repository as the project
// (or an AS-CDG campaign) advances, and answers the questions a
// verification lead asks: how far along is closure, what changed since
// the last snapshot, which events regressed, and how fast is coverage
// moving per simulation spent.
package closure

import (
	"fmt"
	"sort"
	"strings"
	"time"

	"repro/internal/coverage"
)

// Snapshot is the coverage state at one point in a campaign.
type Snapshot struct {
	// Label identifies the snapshot ("after sampling", "week 3", ...).
	Label string
	// When is the snapshot's wall-clock time (caller-supplied; the
	// tracker never reads the clock so campaigns stay reproducible).
	When time.Time
	// Sims is the cumulative simulation count at the snapshot.
	Sims uint64
	// status[id] is each event's status at the snapshot.
	status []coverage.Status
	// covered counts events with status != never.
	covered int
	// well counts events with status == well.
	well int
}

// Tracker accumulates snapshots over one coverage model.
type Tracker struct {
	model     *coverage.Model
	snapshots []Snapshot
}

// NewTracker creates a tracker for the model.
func NewTracker(m *coverage.Model) *Tracker {
	return &Tracker{model: m}
}

// Record appends a snapshot of the aggregate counts.
func (t *Tracker) Record(label string, when time.Time, counts *coverage.Counts) error {
	if counts.Len() != t.model.Size() {
		return fmt.Errorf("closure: counts track %d events, model has %d", counts.Len(), t.model.Size())
	}
	s := Snapshot{
		Label:  label,
		When:   when,
		Sims:   counts.Sims(),
		status: make([]coverage.Status, t.model.Size()),
	}
	for id := 0; id < t.model.Size(); id++ {
		st := counts.Status(id)
		s.status[id] = st
		if st != coverage.StatusNever {
			s.covered++
		}
		if st == coverage.StatusWell {
			s.well++
		}
	}
	t.snapshots = append(t.snapshots, s)
	return nil
}

// Len returns the number of snapshots.
func (t *Tracker) Len() int { return len(t.snapshots) }

// Snapshot returns the i-th snapshot.
func (t *Tracker) Snapshot(i int) Snapshot { return t.snapshots[i] }

// Latest returns the most recent snapshot; ok is false when empty.
func (t *Tracker) Latest() (Snapshot, bool) {
	if len(t.snapshots) == 0 {
		return Snapshot{}, false
	}
	return t.snapshots[len(t.snapshots)-1], true
}

// Coverage returns a snapshot's covered fraction in [0, 1].
func (s Snapshot) Coverage() float64 {
	if len(s.status) == 0 {
		return 0
	}
	return float64(s.covered) / float64(len(s.status))
}

// Delta describes the event-status movement between two snapshots.
type Delta struct {
	From, To string
	// NewlyCovered lists events that went from never to covered.
	NewlyCovered []int
	// Improved lists events whose status rose (excluding NewlyCovered).
	Improved []int
	// Regressed lists events whose status dropped. With monotone
	// aggregates this stays empty; it catches campaigns that substitute
	// a weaker aggregate (e.g. a re-based repository).
	Regressed []int
	// Sims is the simulation spend between the snapshots.
	Sims uint64
}

// Diff compares snapshots i and j (i earlier).
func (t *Tracker) Diff(i, j int) (Delta, error) {
	if i < 0 || j >= len(t.snapshots) || i >= j {
		return Delta{}, fmt.Errorf("closure: bad snapshot pair (%d, %d) of %d", i, j, len(t.snapshots))
	}
	a, b := t.snapshots[i], t.snapshots[j]
	d := Delta{From: a.Label, To: b.Label}
	if b.Sims >= a.Sims {
		d.Sims = b.Sims - a.Sims
	}
	for id := 0; id < t.model.Size(); id++ {
		switch {
		case a.status[id] == coverage.StatusNever && b.status[id] != coverage.StatusNever:
			d.NewlyCovered = append(d.NewlyCovered, id)
		case b.status[id] > a.status[id]:
			d.Improved = append(d.Improved, id)
		case b.status[id] < a.status[id]:
			d.Regressed = append(d.Regressed, id)
		}
	}
	return d, nil
}

// Velocity returns newly-covered events per million simulations between
// the first and last snapshot (0 when undefined).
func (t *Tracker) Velocity() float64 {
	if len(t.snapshots) < 2 {
		return 0
	}
	d, err := t.Diff(0, len(t.snapshots)-1)
	if err != nil || d.Sims == 0 {
		return 0
	}
	return float64(len(d.NewlyCovered)) / float64(d.Sims) * 1e6
}

// Report renders the closure progression as a table plus the latest
// still-uncovered events (capped at maxUncovered rows; 0 = all).
func (t *Tracker) Report(maxUncovered int) string {
	var b strings.Builder
	fmt.Fprintf(&b, "%-24s %12s %10s %10s %10s\n", "snapshot", "sims", "covered", "well", "coverage")
	b.WriteString(strings.Repeat("-", 72) + "\n")
	for _, s := range t.snapshots {
		fmt.Fprintf(&b, "%-24s %12d %10d %10d %9.2f%%\n",
			s.Label, s.Sims, s.covered, s.well, s.Coverage()*100)
	}
	latest, ok := t.Latest()
	if !ok {
		return b.String()
	}
	var uncovered []string
	for id := 0; id < t.model.Size(); id++ {
		if latest.status[id] == coverage.StatusNever {
			uncovered = append(uncovered, t.model.Name(id))
		}
	}
	sort.Strings(uncovered)
	fmt.Fprintf(&b, "\nstill uncovered: %d events", len(uncovered))
	if maxUncovered > 0 && len(uncovered) > maxUncovered {
		uncovered = uncovered[:maxUncovered]
		fmt.Fprintf(&b, " (first %d shown)", maxUncovered)
	}
	b.WriteString("\n")
	for _, name := range uncovered {
		fmt.Fprintf(&b, "  %s\n", name)
	}
	return b.String()
}
