package obs

import (
	"bytes"
	"encoding/json"
	"strings"
	"testing"
)

func TestTracerSpans(t *testing.T) {
	tr := NewTracer()
	s := tr.Span("phase", "corpus")
	s.SetArg("sims", 100)
	s.End()
	w := tr.Span("sim", "chunk").WithTid(105)
	w.End()

	events := tr.Events()
	if len(events) != 2 {
		t.Fatalf("got %d events, want 2", len(events))
	}
	ev := events[0]
	if ev.Name != "corpus" || ev.Cat != "phase" || ev.Ph != "X" || ev.Pid != 1 || ev.Tid != 1 {
		t.Fatalf("bad phase event: %+v", ev)
	}
	if ev.Args["sims"] != 100 {
		t.Fatalf("args not recorded: %+v", ev.Args)
	}
	if ev.Dur < 0 || ev.Ts < 0 {
		t.Fatalf("negative timestamps: %+v", ev)
	}
	if events[1].Tid != 105 {
		t.Fatalf("WithTid not honored: %+v", events[1])
	}
}

func TestTracerExportIsValidChromeTrace(t *testing.T) {
	tr := NewTracer()
	tr.Span("phase", "sampling").End()
	var buf bytes.Buffer
	if err := tr.Export(&buf); err != nil {
		t.Fatal(err)
	}
	var events []TraceEvent
	if err := json.Unmarshal(buf.Bytes(), &events); err != nil {
		t.Fatalf("trace output is not a JSON array: %v\n%s", err, buf.String())
	}
	if len(events) != 1 || events[0].Ph != "X" {
		t.Fatalf("bad decoded events: %+v", events)
	}
}

// TestTracerExportReportsDrops: a tracer that dropped spans at its
// buffer bound exports its events and then one event carrying the
// count; without drops the export is exactly the events.
func TestTracerExportReportsDrops(t *testing.T) {
	tr := NewTracer()
	tr.Span("phase", "corpus").End()
	var buf bytes.Buffer
	if err := tr.Export(&buf); err != nil {
		t.Fatal(err)
	}
	want, err := json.Marshal(tr.Events())
	if err != nil {
		t.Fatal(err)
	}
	if got := buf.String(); got != string(want)+"\n" {
		t.Fatalf("drop-free export = %s, want the events alone: %s", got, want)
	}

	tr.mu.Lock()
	tr.dropped = 3
	tr.mu.Unlock()
	buf.Reset()
	if err := tr.Export(&buf); err != nil {
		t.Fatal(err)
	}
	var events []TraceEvent
	if err := json.Unmarshal(buf.Bytes(), &events); err != nil {
		t.Fatalf("trace output is not a JSON array: %v\n%s", err, buf.String())
	}
	if len(events) != 2 || events[0].Name != "corpus" {
		t.Fatalf("events = %+v, want the span then the truncation event", events)
	}
	last := events[1]
	if last.Name != "trace_truncated" || last.Cat != "trace" || last.Ph != "i" || last.Pid != 1 || last.Tid != 1 {
		t.Fatalf("truncation event = %+v", last)
	}
	if n, ok := last.Args["dropped_spans"].(float64); !ok || n != 3 {
		t.Fatalf("dropped_spans = %v, want 3", last.Args["dropped_spans"])
	}
	if len(tr.Events()) != 1 {
		t.Fatalf("Export added the truncation event to the tracer's own events")
	}
}

func TestNilTracerIsNoOp(t *testing.T) {
	var tr *Tracer
	s := tr.Span("phase", "x")
	if s != nil {
		t.Fatalf("nil tracer must return a nil span")
	}
	s.SetArg("k", 1)
	s = s.WithTid(7)
	s.End()
	if tr.Events() != nil {
		t.Fatalf("nil tracer must read as empty")
	}
	var buf bytes.Buffer
	if err := tr.Export(&buf); err != nil {
		t.Fatal(err)
	}
	if strings.TrimSpace(buf.String()) != "[]" {
		t.Fatalf("nil tracer must still write a valid empty trace, got %q", buf.String())
	}
}
