package knowledge

import (
	"os"
	"path/filepath"
	"reflect"
	"strings"
	"testing"

	"repro/internal/atomicfile"
	"repro/internal/obs"
)

func entry(campaign string, round int, unit, template string, score float64, sources ...string) Entry {
	return Entry{
		Campaign: campaign,
		Round:    round,
		Unit:     unit,
		Template: template,
		Weights:  []float64{10, 20, 30},
		Score:    score,
		Sims:     100,
		Sources:  sources,
	}
}

func openStore(t *testing.T, dir, owner string) *Store {
	t.Helper()
	s, err := Open(dir, owner, nil, nil)
	if err != nil {
		t.Fatal(err)
	}
	return s
}

// TestAddDedupe: feeding the same (campaign, round, template) key twice
// — a replayed harvest — stores it once, and knowledge.entries counts it
// once.
func TestAddDedupe(t *testing.T) {
	rec := obs.NewRecorder()
	s, err := Open(t.TempDir(), "r1", rec, nil)
	if err != nil {
		t.Fatal(err)
	}
	defer s.Close()

	e := entry("c000001", 0, "iounit", "c000001_r0_best", 0.5, "tplA")
	if err := s.Add([]Entry{e, e}); err != nil {
		t.Fatal(err)
	}
	if err := s.Add([]Entry{e}); err != nil {
		t.Fatal(err)
	}
	all, err := s.All()
	if err != nil {
		t.Fatal(err)
	}
	if len(all) != 1 {
		t.Fatalf("entries = %d, want 1", len(all))
	}
	if !reflect.DeepEqual(all[0], e) {
		t.Fatalf("entry round-trip mismatch:\ngot  %+v\nwant %+v", all[0], e)
	}
	if n := rec.Counter("knowledge.entries").Value(); n != 1 {
		t.Fatalf("knowledge.entries = %d, want 1", n)
	}
}

// TestAddValidates: entries without the key fields are rejected before
// anything hits the journal.
func TestAddValidates(t *testing.T) {
	s := openStore(t, t.TempDir(), "r1")
	defer s.Close()
	if err := s.Add([]Entry{{Campaign: "c1"}}); err == nil {
		t.Fatal("entry without template accepted")
	}
	if err := s.Add([]Entry{{Template: "x"}}); err == nil {
		t.Fatal("entry without campaign accepted")
	}
}

// TestOpenRefusesOwnerPath: the owner names the replica's journal file,
// so an owner that is not one path element is refused before anything
// is created — "../../escaped" would otherwise write above the data
// root.
func TestOpenRefusesOwnerPath(t *testing.T) {
	for _, owner := range []string{"", ".", "..", "../../escaped", "a/b", `a\b`, "/abs"} {
		root := t.TempDir()
		s, err := Open(filepath.Join(root, "data", "knowledge"), owner, nil, nil)
		if err == nil {
			s.Close()
		}
		if err == nil || !strings.Contains(err.Error(), "not a single path element") {
			t.Errorf("owner %q: Open error %v, want a refusal", owner, err)
		}
		if left, _ := os.ReadDir(root); len(left) != 0 {
			t.Errorf("owner %q: Open left %d entries in the root", owner, len(left))
		}
	}
}

// TestReopenSeedsSeen: a restarted replica recovers its own journal and
// keeps deduplicating — the durable analogue of TestAddDedupe.
func TestReopenSeedsSeen(t *testing.T) {
	dir := t.TempDir()
	s := openStore(t, dir, "r1")
	e := entry("c000001", 0, "iounit", "c000001_r0_best", 0.5)
	if err := s.Add([]Entry{e}); err != nil {
		t.Fatal(err)
	}
	if err := s.Close(); err != nil {
		t.Fatal(err)
	}

	s = openStore(t, dir, "r1")
	defer s.Close()
	if err := s.Add([]Entry{e}); err != nil {
		t.Fatal(err)
	}
	all, err := s.All()
	if err != nil {
		t.Fatal(err)
	}
	if len(all) != 1 {
		t.Fatalf("entries after reopen+refeed = %d, want 1", len(all))
	}
}

// TestMultiOwnerMerge: two replicas append to their own journals; both
// see the union, and the read-only Load sees it too, sorted by
// (campaign, round, template).
func TestMultiOwnerMerge(t *testing.T) {
	dir := t.TempDir()
	s1 := openStore(t, dir, "replica-a")
	defer s1.Close()
	s2 := openStore(t, dir, "replica-b")
	defer s2.Close()

	e1 := entry("c000001", 0, "iounit", "c000001_r0_best", 0.5, "tplA")
	e2 := entry("c000002", 0, "iounit", "c000002_r0_best", 0.7, "tplB")
	shared := entry("c000003", 1, "iounit", "c000003_r1_best", 0.9)
	if err := s1.Add([]Entry{e1, shared}); err != nil {
		t.Fatal(err)
	}
	if err := s2.Add([]Entry{e2, shared}); err != nil {
		t.Fatal(err)
	}

	want := []Entry{e1, e2, shared}
	for name, get := range map[string]func() ([]Entry, error){
		"s1.All": s1.All,
		"s2.All": s2.All,
		"Load":   func() ([]Entry, error) { return Load(dir) },
	} {
		got, err := get()
		if err != nil {
			t.Fatalf("%s: %v", name, err)
		}
		if !reflect.DeepEqual(got, want) {
			t.Fatalf("%s:\ngot  %+v\nwant %+v", name, got, want)
		}
	}
}

// TestLoadMergesSnapshot: a snapshot.json that an older version
// compacted the journals into is still read, and Load deduplicates it
// against the journals it was built from.
func TestLoadMergesSnapshot(t *testing.T) {
	dir := t.TempDir()
	s := openStore(t, dir, "r1")
	defer s.Close()
	e1 := entry("c000001", 0, "iounit", "c000001_r0_best", 0.5)
	e2 := entry("c000002", 0, "l3cache", "c000002_r0_best", 0.7)
	old := entry("c000000", 0, "iounit", "c000000_r0_best", 0.3) // in the snapshot alone
	if err := s.Add([]Entry{e1, e2}); err != nil {
		t.Fatal(err)
	}
	if err := atomicfile.WriteJSON(filepath.Join(dir, snapshotFile), []Entry{old, e1, e2}); err != nil {
		t.Fatal(err)
	}
	all, err := Load(dir)
	if err != nil {
		t.Fatal(err)
	}
	if want := []Entry{old, e1, e2}; !reflect.DeepEqual(all, want) {
		t.Fatalf("merged view:\ngot  %+v\nwant %+v", all, want)
	}
}

// TestLoadSkipsForeignFiles: mid-create (empty) and non-journal files in
// the store directory are ignored rather than failing the merge.
func TestLoadSkipsForeignFiles(t *testing.T) {
	dir := t.TempDir()
	s := openStore(t, dir, "r1")
	defer s.Close()
	e := entry("c000001", 0, "iounit", "c000001_r0_best", 0.5)
	if err := s.Add([]Entry{e}); err != nil {
		t.Fatal(err)
	}
	if err := os.WriteFile(filepath.Join(dir, "mid-create.journal"), nil, 0o644); err != nil {
		t.Fatal(err)
	}
	if err := os.WriteFile(filepath.Join(dir, "notes.txt"), []byte("hi"), 0o644); err != nil {
		t.Fatal(err)
	}
	all, err := Load(dir)
	if err != nil {
		t.Fatal(err)
	}
	if len(all) != 1 {
		t.Fatalf("entries = %d, want 1", len(all))
	}
}

func TestPriors(t *testing.T) {
	entries := []Entry{
		entry("c1", 0, "iounit", "a", 0.2),
		entry("c2", 0, "iounit", "b", 0.9),
		entry("c3", 0, "l3cache", "c", 0.99), // wrong unit: filtered
		entry("c4", 0, "iounit", "d", 0.5),
		{Campaign: "c5", Unit: "iounit", Template: "e", Score: 1.0}, // no weights: filtered
	}
	pts := Priors(entries, "iounit", 0)
	if len(pts) != 3 {
		t.Fatalf("priors = %d, want 3", len(pts))
	}
	for i := 1; i < len(pts); i++ {
		if pts[i].Value > pts[i-1].Value {
			t.Fatalf("priors not sorted best-first: %v", pts)
		}
	}
	if pts[0].Value != 0.9 {
		t.Fatalf("best prior value = %v, want 0.9", pts[0].Value)
	}
	if got := Priors(entries, "iounit", 2); len(got) != 2 {
		t.Fatalf("capped priors = %d, want 2", len(got))
	}
	if got := Priors(entries, "noc", 0); got != nil {
		t.Fatalf("priors for unitless history = %v, want nil", got)
	}
}
