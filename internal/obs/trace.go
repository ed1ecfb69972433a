package obs

import (
	"encoding/json"
	"io"
	"sync"
	"time"
)

// TraceEvent is one Chrome trace-event (the "Trace Event Format"
// understood by Perfetto and chrome://tracing). The tracer emits
// complete events (ph "X"): one record per span with its start
// timestamp and duration, both in microseconds.
type TraceEvent struct {
	Name string         `json:"name"`
	Cat  string         `json:"cat"`
	Ph   string         `json:"ph"`
	Ts   float64        `json:"ts"`
	Dur  float64        `json:"dur"`
	Pid  int            `json:"pid"`
	Tid  int            `json:"tid"`
	Args map[string]any `json:"args,omitempty"`
}

// maxTraceEvents bounds the tracer's buffer: beyond it new spans are
// dropped (and counted) instead of growing memory without limit on
// paper-scale runs. Export reports the count as one truncation event.
const maxTraceEvents = 1 << 20

// Tracer collects spans and exports them as Chrome trace-event JSON.
// Spans may start and end on any goroutine; each span carries a tid
// that becomes its own lane in the trace viewer (tid 1 is the flow,
// 100+i is scheduler worker i). A nil *Tracer is a valid no-op.
type Tracer struct {
	epoch time.Time

	mu      sync.Mutex
	events  []TraceEvent
	dropped uint64
}

// NewTracer creates a tracer whose timestamps are relative to now.
func NewTracer() *Tracer {
	return &Tracer{epoch: time.Now()}
}

// Span starts a span in the given category on the flow lane (tid 1).
// End it with Span.End; attach attributes with Span.SetArg or WithTid
// before ending. A nil tracer returns a nil (no-op) span.
func (t *Tracer) Span(cat, name string) *Span {
	if t == nil {
		return nil
	}
	return &Span{t: t, cat: cat, name: name, tid: 1, start: time.Since(t.epoch)}
}

// add appends a completed event, honoring the buffer bound.
func (t *Tracer) add(ev TraceEvent) {
	t.mu.Lock()
	if len(t.events) >= maxTraceEvents {
		t.dropped++
	} else {
		t.events = append(t.events, ev)
	}
	t.mu.Unlock()
}

// Events returns a copy of the completed events collected so far.
func (t *Tracer) Events() []TraceEvent {
	if t == nil {
		return nil
	}
	t.mu.Lock()
	defer t.mu.Unlock()
	return append([]TraceEvent(nil), t.events...)
}

// Export writes the collected events as one JSON array — a complete
// Chrome trace file loadable in Perfetto. A trace that outgrew
// maxTraceEvents ends with one instant event, "trace_truncated", whose
// "dropped_spans" arg counts the spans it lacks.
func (t *Tracer) Export(w io.Writer) error {
	if t == nil {
		_, err := w.Write([]byte("[]\n"))
		return err
	}
	t.mu.Lock()
	events := append([]TraceEvent(nil), t.events...)
	if t.dropped > 0 {
		events = append(events, TraceEvent{
			Name: "trace_truncated",
			Cat:  "trace",
			Ph:   "i",
			Ts:   float64(time.Since(t.epoch).Microseconds()),
			Pid:  1,
			Tid:  1,
			Args: map[string]any{"dropped_spans": t.dropped},
		})
	}
	t.mu.Unlock()
	if events == nil {
		events = []TraceEvent{} // a span-less run is still a valid trace, not "null"
	}
	enc := json.NewEncoder(w)
	return enc.Encode(events)
}

// Span is one in-flight trace span. A nil *Span is a valid no-op.
type Span struct {
	t     *Tracer
	cat   string
	name  string
	tid   int
	start time.Duration
	args  map[string]any
}

// WithTid moves the span to the given trace lane and returns it.
func (s *Span) WithTid(tid int) *Span {
	if s != nil {
		s.tid = tid
	}
	return s
}

// SetArg attaches an attribute shown by the trace viewer.
func (s *Span) SetArg(key string, value any) {
	if s == nil {
		return
	}
	if s.args == nil {
		s.args = map[string]any{}
	}
	s.args[key] = value
}

// End completes the span, recording one "X" event.
func (s *Span) End() {
	if s == nil {
		return
	}
	end := time.Since(s.t.epoch)
	s.t.add(TraceEvent{
		Name: s.name,
		Cat:  s.cat,
		Ph:   "X",
		Ts:   float64(s.start.Microseconds()),
		Dur:  float64((end - s.start).Microseconds()),
		Pid:  1,
		Tid:  s.tid,
		Args: s.args,
	})
}
