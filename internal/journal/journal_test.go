package journal

import (
	"errors"
	"os"
	"path/filepath"
	"strings"
	"testing"

	"repro/internal/obs"
)

type payload struct {
	N int    `json:"n"`
	S string `json:"s"`
}

func writeN(t *testing.T, path string, n int) *Writer {
	t.Helper()
	w, err := Create(path, nil)
	if err != nil {
		t.Fatalf("Create: %v", err)
	}
	for i := 0; i < n; i++ {
		if err := w.Append("rec", payload{N: i, S: "hello"}); err != nil {
			t.Fatalf("Append %d: %v", i, err)
		}
	}
	return w
}

func TestAppendRecoverRoundTrip(t *testing.T) {
	path := filepath.Join(t.TempDir(), "run.journal")
	w := writeN(t, path, 5)
	if w.appends != 5 {
		t.Fatalf("appends = %d, want 5", w.appends)
	}
	if err := w.Close(); err != nil {
		t.Fatalf("Close: %v", err)
	}
	recs, w2, err := Recover(path, nil, nil)
	if err != nil {
		t.Fatalf("Recover: %v", err)
	}
	defer w2.Close()
	if len(recs) != 5 {
		t.Fatalf("recovered %d records, want 5", len(recs))
	}
	if w2.appends != 5 {
		t.Fatalf("recovered writer appends = %d, want 5", w2.appends)
	}
	cur := NewCursor(w2, recs)
	for i := 0; i < 5; i++ {
		var p payload
		ok, err := cur.Take("rec", &p)
		if err != nil || !ok {
			t.Fatalf("Take %d: ok=%v err=%v", i, ok, err)
		}
		if p.N != i || p.S != "hello" {
			t.Fatalf("record %d decoded as %+v", i, p)
		}
	}
	if ok, _ := cur.Take("rec", nil); ok {
		t.Fatal("Take succeeded past the end")
	}
	// Replay exhausted: appends flow through to the file.
	if err := cur.Append("rec", payload{N: 5}); err != nil {
		t.Fatalf("Append after replay: %v", err)
	}
}

func TestRecoverTruncatesTornTail(t *testing.T) {
	dir := t.TempDir()
	base := filepath.Join(dir, "base.journal")
	writeN(t, base, 4).Close()
	data, err := os.ReadFile(base)
	if err != nil {
		t.Fatal(err)
	}
	// Chop the file at every byte boundary: recovery must always yield a
	// valid prefix and never error or panic (past the magic).
	for cut := len(Magic); cut <= len(data); cut++ {
		path := filepath.Join(dir, "cut.journal")
		if err := os.WriteFile(path, data[:cut], 0o644); err != nil {
			t.Fatal(err)
		}
		recs, w, err := Recover(path, nil, nil)
		if err != nil {
			t.Fatalf("cut %d: Recover: %v", cut, err)
		}
		// The file must now be exactly the valid prefix, and appending must
		// extend it into a longer valid journal.
		if err := w.Append("extra", payload{N: 99}); err != nil {
			t.Fatalf("cut %d: Append after recovery: %v", cut, err)
		}
		w.Close()
		recs2, w2, err := Recover(path, nil, nil)
		if err != nil {
			t.Fatalf("cut %d: second Recover: %v", cut, err)
		}
		w2.Close()
		if len(recs2) != len(recs)+1 {
			t.Fatalf("cut %d: %d records after append, want %d", cut, len(recs2), len(recs)+1)
		}
		if recs2[len(recs2)-1].Type != "extra" {
			t.Fatalf("cut %d: last record is %q", cut, recs2[len(recs2)-1].Type)
		}
	}
}

func TestRecoverRejectsNonJournal(t *testing.T) {
	path := filepath.Join(t.TempDir(), "bogus")
	if err := os.WriteFile(path, []byte("this is not a journal at all"), 0o644); err != nil {
		t.Fatal(err)
	}
	if _, _, err := Recover(path, nil, nil); !errors.Is(err, ErrNotJournal) {
		t.Fatalf("Recover of non-journal: err=%v, want ErrNotJournal", err)
	}
	if err := os.WriteFile(path, []byte("AS"), 0o644); err != nil {
		t.Fatal(err)
	}
	if _, _, err := Recover(path, nil, nil); !errors.Is(err, ErrNotJournal) {
		t.Fatalf("Recover of short file: err=%v, want ErrNotJournal", err)
	}
}

func TestRecoverCorruptMiddleKeepsPrefix(t *testing.T) {
	path := filepath.Join(t.TempDir(), "run.journal")
	writeN(t, path, 6).Close()
	data, err := os.ReadFile(path)
	if err != nil {
		t.Fatal(err)
	}
	// Flip one byte in the middle of the stream: everything from the
	// corrupt frame on is dropped.
	mid := len(Magic) + (len(data)-len(Magic))/2
	data[mid] ^= 0xff
	if err := os.WriteFile(path, data, 0o644); err != nil {
		t.Fatal(err)
	}
	recs, w, err := Recover(path, nil, nil)
	if err != nil {
		t.Fatalf("Recover: %v", err)
	}
	w.Close()
	if len(recs) >= 6 {
		t.Fatalf("recovered %d records from a corrupt stream, want < 6", len(recs))
	}
	for i, r := range recs {
		var p payload
		ok, err := NewCursor(nil, []Record{r}).Take("rec", &p)
		if !ok || err != nil || p.N != i {
			t.Fatalf("surviving record %d: ok=%v err=%v p=%+v", i, ok, err, p)
		}
	}
}

func TestFailAppendsInjection(t *testing.T) {
	for _, tear := range []int{0, 5} {
		path := filepath.Join(t.TempDir(), "run.journal")
		w, err := Create(path, nil)
		if err != nil {
			t.Fatal(err)
		}
		w.FailAppends(2, tear)
		if err := w.Append("rec", payload{N: 0}); err != nil {
			t.Fatal(err)
		}
		if err := w.Append("rec", payload{N: 1}); err != nil {
			t.Fatal(err)
		}
		if err := w.Append("rec", payload{N: 2}); !errors.Is(err, ErrInjected) {
			t.Fatalf("tear=%d: third append err=%v, want ErrInjected", tear, err)
		}
		// The writer is poisoned: later appends keep failing.
		if err := w.Append("rec", payload{N: 3}); !errors.Is(err, ErrInjected) {
			t.Fatalf("tear=%d: post-injection append err=%v, want ErrInjected", tear, err)
		}
		w.Close()
		recs, w2, err := Recover(path, nil, nil)
		if err != nil {
			t.Fatalf("tear=%d: Recover: %v", tear, err)
		}
		w2.Close()
		if len(recs) != 2 {
			t.Fatalf("tear=%d: recovered %d records, want 2", tear, len(recs))
		}
	}
}

func TestCursorAppendDuringReplayFails(t *testing.T) {
	cur := NewCursor(nil, []Record{{Type: "rec", Data: []byte(`{}`)}})
	if err := cur.Append("other", nil); err == nil {
		t.Fatal("Append during replay succeeded; want mismatch error")
	}
	if ok, _ := cur.Take("rec", nil); !ok {
		t.Fatal("Take failed")
	}
	if err := cur.Append("other", nil); err != nil {
		t.Fatalf("Append after replay: %v", err)
	}
}

func TestNilCursorIsInert(t *testing.T) {
	var cur *Cursor
	if ok, err := cur.Take("rec", nil); ok || err != nil {
		t.Fatalf("nil Take: ok=%v err=%v", ok, err)
	}
	if err := cur.Append("rec", payload{}); err != nil {
		t.Fatalf("nil Append: %v", err)
	}
	if err := cur.Close(); err != nil {
		t.Fatalf("nil Close: %v", err)
	}
}

func TestJournalMetrics(t *testing.T) {
	rec := obs.NewRecorder()
	path := filepath.Join(t.TempDir(), "run.journal")
	w, err := Create(path, rec)
	if err != nil {
		t.Fatal(err)
	}
	for i := 0; i < 3; i++ {
		if err := w.Append("rec", payload{N: i}); err != nil {
			t.Fatal(err)
		}
	}
	w.Close()
	if got := rec.Counter("journal.appends").Value(); got != 3 {
		t.Fatalf("journal.appends = %d, want 3", got)
	}
	if got := rec.Counter("journal.bytes").Value(); got == 0 {
		t.Fatal("journal.bytes = 0")
	}
	// Corrupt the tail and recover: recovery metrics fire.
	data, _ := os.ReadFile(path)
	if err := os.WriteFile(path, append(data, 0xde, 0xad), 0o644); err != nil {
		t.Fatal(err)
	}
	_, w2, err := Recover(path, rec, nil)
	if err != nil {
		t.Fatal(err)
	}
	w2.Close()
	if got := rec.Counter("journal.recoveries").Value(); got != 1 {
		t.Fatalf("journal.recoveries = %d, want 1", got)
	}
	if got := rec.Counter("journal.truncated_bytes").Value(); got != 2 {
		t.Fatalf("journal.truncated_bytes = %d, want 2", got)
	}
}

// TestOpen: the one opener creates a missing, empty or header-less
// journal with the run's header, resumes a journal whose header equals
// the run's with its history behind the header, and rejects one of
// another run or a file that is no journal.
func TestOpen(t *testing.T) {
	dir := t.TempDir()
	hdr := payload{N: 1, S: "run"}
	for _, tc := range []struct {
		name    string
		content *string // nil: no file
		header  payload
		resumed bool
		errPart string
	}{
		{"missing", nil, hdr, false, ""},
		{"empty", ptr(""), hdr, false, ""},
		{"magic only", ptr(Magic), hdr, false, ""},
		{"torn header", ptr(Magic + "\x00\x00\x01"), hdr, false, ""},
		{"same run", nil, hdr, true, ""},
		{"another run", nil, payload{N: 2, S: "run"}, false, "belongs to another run"},
		{"not a journal", ptr("ASCDG"), hdr, false, "not a journal"},
	} {
		path := filepath.Join(dir, tc.name+".journal")
		switch {
		case tc.content != nil:
			if err := os.WriteFile(path, []byte(*tc.content), 0o644); err != nil {
				t.Fatal(err)
			}
		case tc.resumed || tc.errPart != "":
			// A finished run of hdr with one record after the header.
			cur, _, err := Open(path, "header", hdr, nil, nil)
			if err != nil {
				t.Fatal(err)
			}
			cur.Append("rec", payload{N: 7})
			cur.Close()
		}
		cur, resumed, err := Open(path, "header", tc.header, nil, nil)
		if tc.errPart != "" {
			if err == nil || !strings.Contains(err.Error(), tc.errPart) {
				t.Errorf("%s: err = %v, want one with %q", tc.name, err, tc.errPart)
			}
			continue
		}
		if err != nil || resumed != tc.resumed {
			t.Fatalf("%s: resumed %v, err %v; want resumed %v", tc.name, resumed, err, tc.resumed)
		}
		var rec payload
		ok, _ := cur.Take("rec", &rec)
		if more, _ := cur.Take("rec", nil); ok != tc.resumed || more || (ok && rec.N != 7) {
			t.Errorf("%s: history replayed %v (%+v, more %v), want %v and nothing more", tc.name, ok, rec, more, tc.resumed)
		}
		cur.Close()
		// Whatever the file was, it now begins with this run's header.
		again, resumed, err := Open(path, "header", tc.header, nil, nil)
		if err != nil || !resumed {
			t.Errorf("%s: reopen: resumed %v, err %v", tc.name, resumed, err)
		}
		again.Close()
	}
}

func ptr(s string) *string { return &s }
