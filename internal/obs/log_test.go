package obs

import (
	"bytes"
	"context"
	"encoding/json"
	"log/slog"
	"strings"
	"testing"
)

func TestNopLogger(t *testing.T) {
	l := OrNop(nil)
	if l == nil {
		t.Fatal("OrNop(nil) returned nil")
	}
	if l.Enabled(context.Background(), slog.LevelError) {
		t.Fatal("nop logger has a level enabled")
	}
	l.Info("must not panic", "k", "v")
	if OrNop(nil) != l {
		t.Fatal("OrNop(nil) is not one nop logger")
	}
	real := slog.New(slog.NewTextHandler(&bytes.Buffer{}, nil))
	if OrNop(real) != real {
		t.Fatal("OrNop replaced a real logger")
	}
}

func TestParseLogLevel(t *testing.T) {
	cases := map[string]slog.Level{
		"debug": slog.LevelDebug,
		"info":  slog.LevelInfo,
		"":      slog.LevelInfo,
		"warn":  slog.LevelWarn,
		"error": slog.LevelError,
	}
	for in, want := range cases {
		got, err := ParseLogLevel(in)
		if err != nil || got != want {
			t.Errorf("ParseLogLevel(%q) = %v, %v; want %v", in, got, err, want)
		}
	}
	if _, err := ParseLogLevel("verbose"); err == nil {
		t.Fatal("invalid level accepted")
	}
}

func TestNewLoggerFormats(t *testing.T) {
	var buf bytes.Buffer
	l, err := NewLogger(&buf, "info", "json")
	if err != nil {
		t.Fatal(err)
	}
	l.Info("hello", "campaign", "c000001")
	var rec map[string]any
	if err := json.Unmarshal(buf.Bytes(), &rec); err != nil {
		t.Fatalf("json log line is not JSON: %v (%q)", err, buf.String())
	}
	if rec["campaign"] != "c000001" || rec["msg"] != "hello" {
		t.Fatalf("json record = %v", rec)
	}

	buf.Reset()
	l, err = NewLogger(&buf, "warn", "text")
	if err != nil {
		t.Fatal(err)
	}
	l.Info("filtered out")
	if buf.Len() != 0 {
		t.Fatalf("info leaked through warn level: %q", buf.String())
	}
	l.Warn("kept", "k", "v")
	if !strings.Contains(buf.String(), "msg=kept") || !strings.Contains(buf.String(), "k=v") {
		t.Fatalf("text record = %q", buf.String())
	}

	if _, err := NewLogger(&buf, "info", "xml"); err == nil {
		t.Fatal("invalid format accepted")
	}
	if _, err := NewLogger(&buf, "loud", "text"); err == nil {
		t.Fatal("invalid level accepted")
	}
}
