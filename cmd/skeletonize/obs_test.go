package main

import (
	"bytes"
	"encoding/json"
	"io"
	"os"
	"path/filepath"
	"testing"
)

// TestObsAndWorkersFlags checks the shared observability flags work on
// the one CLI that never simulates: -trace records the skeleton phase,
// and -workers, which would set nothing here, is not a flag.
func TestObsAndWorkersFlags(t *testing.T) {
	trace := filepath.Join(t.TempDir(), "trace.json")
	var out, errb bytes.Buffer
	code := run([]string{"-trace", trace, writeTemplate(t)}, &out, &errb)
	if code != 0 {
		t.Fatalf("exit %d: %s", code, errb.String())
	}
	data, err := os.ReadFile(trace)
	if err != nil {
		t.Fatal(err)
	}
	var events []map[string]any
	if err := json.Unmarshal(data, &events); err != nil {
		t.Fatalf("trace file invalid: %v", err)
	}
	found := false
	for _, ev := range events {
		if ev["cat"] == "phase" && ev["name"] == "skeleton" {
			found = true
		}
	}
	if !found {
		t.Fatalf("trace missing the skeleton phase span: %v", events)
	}
	if code := run([]string{"-workers", "4", writeTemplate(t)}, io.Discard, io.Discard); code != 2 {
		t.Fatalf("-workers: exit %d, want 2", code)
	}
}
