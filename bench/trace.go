package main

import (
	"encoding/json"
	"fmt"
	"io"
	"os"
	"sort"
	"sync"
	"time"
)

// span is one traced interval: a call into a layer, or a group of them.
// Spans are recorded by the harness around the exported functions it
// calls; nothing inside the program is instrumented.
type span struct {
	id, parent int // parent 0 = root
	name       string
	campaign   string
	lane       int
	start, end time.Duration // since the tracer's epoch
	tr         *tracer
}

// tracer keeps every finished span in memory until the run ends. A nil
// *tracer records nothing, so the same harness code runs traced and
// untraced.
type tracer struct {
	epoch time.Time
	mu    sync.Mutex
	next  int
	spans []span
}

func newTracer() *tracer { return &tracer{epoch: time.Now()} }

// start opens a span under parent (nil = root). The campaign id and the
// lane are inherited from the parent unless it is a root span.
func (t *tracer) start(parent *span, name string) *span {
	if t == nil {
		return nil
	}
	t.mu.Lock()
	t.next++
	id := t.next
	t.mu.Unlock()
	s := &span{id: id, name: name, tr: t, start: time.Since(t.epoch)}
	if parent != nil {
		s.parent, s.campaign, s.lane = parent.id, parent.campaign, parent.lane
	}
	return s
}

// root opens a parentless span that names the campaign and the trace
// lane all its descendants share.
func (t *tracer) root(name, campaign string, lane int) *span {
	s := t.start(nil, name)
	if s != nil {
		s.campaign, s.lane = campaign, lane
	}
	return s
}

func (s *span) finish() {
	if s == nil {
		return
	}
	s.end = time.Since(s.tr.epoch)
	s.tr.mu.Lock()
	s.tr.spans = append(s.tr.spans, *s)
	s.tr.mu.Unlock()
}

func (s *span) seconds() float64 {
	if s == nil {
		return 0
	}
	return (s.end - s.start).Seconds()
}

// write exports the spans in Chrome trace-event format (complete "X"
// events, microsecond timestamps), loadable in Perfetto.
func (t *tracer) write(w io.Writer) error {
	type event struct {
		Name string         `json:"name"`
		Cat  string         `json:"cat"`
		Ph   string         `json:"ph"`
		Ts   float64        `json:"ts"`
		Dur  float64        `json:"dur"`
		Pid  int            `json:"pid"`
		Tid  int            `json:"tid"`
		Args map[string]any `json:"args"`
	}
	t.mu.Lock()
	spans := append([]span(nil), t.spans...)
	t.mu.Unlock()
	sort.Slice(spans, func(i, j int) bool { return spans[i].start < spans[j].start })
	events := make([]event, len(spans))
	for i, s := range spans {
		events[i] = event{
			Name: s.name, Cat: "bench", Ph: "X",
			Ts:  float64(s.start.Nanoseconds()) / 1e3,
			Dur: float64((s.end - s.start).Nanoseconds()) / 1e3,
			Pid: 1, Tid: s.lane,
			Args: map[string]any{"id": s.id, "parent": s.parent, "campaign": s.campaign},
		}
	}
	return json.NewEncoder(w).Encode(events)
}

func (t *tracer) writeFile(path string) error {
	f, err := os.Create(path)
	if err != nil {
		return err
	}
	if err := t.write(f); err != nil {
		f.Close()
		return err
	}
	return f.Close()
}

// selfRow is one line of the self-time table: all spans of one name.
type selfRow struct {
	name        string
	count       int
	total, self float64 // seconds
}

// selfTimes aggregates the spans by name. A span's self time is its
// duration minus the part of it that its child spans cover; children of
// one parent run on one goroutine here, so their intervals do not
// overlap and the covered part is the sum of their durations.
func (t *tracer) selfTimes() []selfRow {
	if t == nil {
		return nil
	}
	t.mu.Lock()
	spans := append([]span(nil), t.spans...)
	t.mu.Unlock()
	covered := map[int]time.Duration{}
	for _, s := range spans {
		covered[s.parent] += s.end - s.start
	}
	byName := map[string]*selfRow{}
	for _, s := range spans {
		r := byName[s.name]
		if r == nil {
			r = &selfRow{name: s.name}
			byName[s.name] = r
		}
		d := s.end - s.start
		r.count++
		r.total += d.Seconds()
		if self := d - covered[s.id]; self > 0 {
			r.self += self.Seconds()
		}
	}
	rows := make([]selfRow, 0, len(byName))
	for _, r := range byName {
		rows = append(rows, *r)
	}
	sort.Slice(rows, func(i, j int) bool {
		if rows[i].self != rows[j].self {
			return rows[i].self > rows[j].self
		}
		return rows[i].name < rows[j].name
	})
	return rows
}

// printSelfTimes writes the ranked self-time table; shares are of the
// summed self time, which equals the summed duration of the root spans.
func printSelfTimes(w io.Writer, rows []selfRow) {
	var sum float64
	for _, r := range rows {
		sum += r.self
	}
	fmt.Fprintf(w, "%-28s %8s %12s %12s %7s\n", "span", "count", "total_ms", "self_ms", "share")
	for _, r := range rows {
		share := 0.0
		if sum > 0 {
			share = r.self / sum
		}
		fmt.Fprintf(w, "%-28s %8d %12.3f %12.3f %6.1f%%\n", r.name, r.count, r.total*1e3, r.self*1e3, share*100)
	}
}
