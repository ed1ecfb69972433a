package core

import (
	"strconv"
	"strings"
	"testing"

	"repro/internal/duv/iounit"
)

func csvReport(t *testing.T) (*Report, *Flow) {
	t.Helper()
	flow := newFlow(t, iounit.New(), smallConfig(41))
	report, err := runOne(flow, Target{Family: iounit.FamilyName})
	if err != nil {
		t.Fatal(err)
	}
	return report, flow
}

func TestFamilyCSV(t *testing.T) {
	report, flow := csvReport(t)
	m := flow.Env().Unit().Model()
	csv, err := report.FamilyCSV(m, iounit.FamilyName)
	if err != nil {
		t.Fatal(err)
	}
	lines := strings.Split(strings.TrimSpace(csv), "\n")
	if len(lines) != 7 { // header + 6 family events
		t.Fatalf("lines = %d:\n%s", len(lines), csv)
	}
	header := strings.Split(lines[0], ",")
	if header[0] != "event" || len(header) != 1+2*len(report.Phases) {
		t.Fatalf("header = %v", header)
	}
	row := strings.Split(lines[1], ",")
	if row[0] != "crc_004" {
		t.Fatalf("first row = %v", row)
	}
	if _, err := strconv.ParseUint(row[1], 10, 64); err != nil {
		t.Fatalf("hits column not numeric: %v", row)
	}
	if rate, err := strconv.ParseFloat(row[2], 64); err != nil || rate < 0 || rate > 1 {
		t.Fatalf("rate column invalid: %v", row)
	}
	if _, err := report.FamilyCSV(m, "nope"); err == nil {
		t.Fatal("unknown family should fail")
	}
}

func TestStatusCSV(t *testing.T) {
	report, flow := csvReport(t)
	m := flow.Env().Unit().Model()
	fam, _ := m.Family(iounit.FamilyName)
	csv := report.StatusCSV(fam)
	lines := strings.Split(strings.TrimSpace(csv), "\n")
	if len(lines) != 1+len(report.Phases) {
		t.Fatalf("lines = %d:\n%s", len(lines), csv)
	}
	if lines[0] != "phase,never,lightly,well" {
		t.Fatalf("header = %q", lines[0])
	}
	for _, line := range lines[1:] {
		parts := strings.Split(line, ",")
		if len(parts) != 4 {
			t.Fatalf("row = %q", line)
		}
		total := 0
		for _, p := range parts[1:] {
			n, err := strconv.Atoi(p)
			if err != nil {
				t.Fatalf("non-numeric count in %q", line)
			}
			total += n
		}
		if total != len(fam) {
			t.Fatalf("status counts sum to %d, want %d: %q", total, len(fam), line)
		}
	}
}

func TestProgressCSV(t *testing.T) {
	report, _ := csvReport(t)
	csv := report.ProgressCSV()
	lines := strings.Split(strings.TrimSpace(csv), "\n")
	if len(lines) != 1+len(report.Progress) {
		t.Fatalf("lines = %d, progress = %d", len(lines), len(report.Progress))
	}
	if lines[0] != "iteration,best,step,moved,evals" {
		t.Fatalf("header = %q", lines[0])
	}
	row := strings.Split(lines[1], ",")
	if row[0] != "1" {
		t.Fatalf("first iteration row = %v", row)
	}
}
