package service

import (
	"encoding/json"
	"io/fs"
	"os"
	"path/filepath"
	"reflect"
	"testing"

	"repro/internal/knowledge"
)

// parentRoot is a data root written by the service before its lifecycle
// had one refresh rule, one fenced writer and one JSON codec, when
// replicas shared roots through per-campaign leases. A service with
// owner "parent-replica" and a 2s lease TTL ran three submissions:
//
//	c000001    engineSpec("ranker", true), done; it fed knowledge/
//	c000002    the same spec at seed 22, drained after 12 journal
//	           appends (mid-sampling): state "running", lease released,
//	           knowledge.json frozen from c000001's harvest
//	c000003    tinySpec at seed 23, queued behind it
//	knowledge/ the store: parent-replica.journal and a compacted
//	           snapshot.json
var parentRoot = filepath.Join("testdata", "parent_dataroot")

// copyTree copies the directory tree src into dst.
func copyTree(t *testing.T, src, dst string) {
	t.Helper()
	err := filepath.WalkDir(src, func(path string, d fs.DirEntry, err error) error {
		if err != nil {
			return err
		}
		rel, err := filepath.Rel(src, path)
		if err != nil {
			return err
		}
		if d.IsDir() {
			return os.MkdirAll(filepath.Join(dst, rel), 0o755)
		}
		data, err := os.ReadFile(path)
		if err != nil {
			return err
		}
		return os.WriteFile(filepath.Join(dst, rel), data, 0o644)
	})
	if err != nil {
		t.Fatal(err)
	}
}

// TestParentDataRootAdopted: a service opened on a copy of parentRoot
// serves the done campaign's reports as the parent wrote them, finishes
// both live campaigns with report.json bytes equal to uninterrupted
// runs of their specs, and serves the parent's knowledge entries.
func TestParentDataRootAdopted(t *testing.T) {
	var parentReports []*ReportJSON
	var parentEntries []knowledge.Entry
	for path, into := range map[string]any{
		filepath.Join(parentRoot, "c000001", "report.json"):     &parentReports,
		filepath.Join(parentRoot, "knowledge", "snapshot.json"): &parentEntries,
	} {
		data, err := os.ReadFile(path)
		if err != nil {
			t.Fatal(err)
		}
		if err := json.Unmarshal(data, into); err != nil {
			t.Fatal(err)
		}
	}
	if len(parentReports) == 0 || len(parentEntries) == 0 {
		t.Fatal("fixture holds no reports or no knowledge entries")
	}

	dataDir := t.TempDir()
	copyTree(t, parentRoot, dataDir)
	svc := newService(t, Config{DataDir: dataDir})
	if st := svc.Get("c000001"); st == nil || st.State != StateDone || !reflect.DeepEqual(st.Reports, parentReports) {
		t.Fatalf("done campaign = %+v, want the parent's reports", st)
	}

	// Uninterrupted runs of the live campaigns' specs, on a fresh root
	// that holds the parent's knowledge store: the knowledge-enabled
	// campaign freezes the same priors c000002 froze at the parent.
	baseDir := t.TempDir()
	copyTree(t, filepath.Join(parentRoot, "knowledge"), filepath.Join(baseDir, "knowledge"))
	base := newService(t, Config{DataDir: baseDir})
	for _, id := range []string{"c000002", "c000003"} {
		st := waitDone(t, svc, id)
		if st.State != StateDone {
			t.Fatalf("%s: state %q (error %q), want done", id, st.State, st.Error)
		}
		baseID, err := base.Submit(st.Spec)
		if err != nil {
			t.Fatal(err)
		}
		if bst := waitDone(t, base, baseID); bst.State != StateDone {
			t.Fatalf("baseline of %s: state %q (error %q)", id, bst.State, bst.Error)
		}
		got, err := os.ReadFile(filepath.Join(dataDir, id, reportFile))
		if err != nil {
			t.Fatal(err)
		}
		want, err := os.ReadFile(filepath.Join(baseDir, baseID, reportFile))
		if err != nil {
			t.Fatal(err)
		}
		if string(got) != string(want) {
			t.Fatalf("%s: report.json differs from an uninterrupted run of its spec", id)
		}
	}

	frozen, err := os.ReadFile(filepath.Join(dataDir, "c000002", knowledgeFile))
	if err != nil {
		t.Fatal(err)
	}
	if want, _ := os.ReadFile(filepath.Join(parentRoot, "c000002", knowledgeFile)); string(frozen) != string(want) {
		t.Fatal("resumed campaign rewrote its frozen knowledge.json")
	}

	entries, err := svc.Knowledge()
	if err != nil {
		t.Fatal(err)
	}
	for _, pe := range parentEntries {
		found := false
		for _, e := range entries {
			found = found || reflect.DeepEqual(e, pe)
		}
		if !found {
			t.Fatalf("Knowledge() lacks the parent's entry %+v", pe)
		}
	}
}
