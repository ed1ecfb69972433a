package journal

import (
	"errors"
	"os"
	"path/filepath"
	"testing"
)

// openFDs counts this process's open file descriptors via /proc.
func openFDs(t *testing.T) int {
	t.Helper()
	ents, err := os.ReadDir("/proc/self/fd")
	if err != nil {
		t.Skipf("cannot enumerate fds: %v", err)
	}
	return len(ents)
}

// TestAppendFailpointPoisonsWriter verifies that an injected append
// failure behaves exactly like a failing disk: the append errors with
// ErrInjected and the writer stays poisoned for every later append.
func TestAppendFailpointPoisonsWriter(t *testing.T) {
	path := filepath.Join(t.TempDir(), "run.journal")
	w := writeN(t, path, 3)
	defer w.Close()

	w.FailAppends(0, 0)
	err := w.Append("rec", payload{N: 99})
	if !errors.Is(err, ErrInjected) {
		t.Fatalf("Append under injection = %v, want ErrInjected", err)
	}
	// The writer must stay poisoned — a run can never journal past a
	// crash point.
	if err2 := w.Append("rec", payload{N: 100}); !errors.Is(err2, ErrInjected) {
		t.Fatalf("Append after poison = %v, want the sticky injected error", err2)
	}
	if w.Appends() != 3 {
		t.Fatalf("Appends = %d after poison, want 3", w.Appends())
	}
	w.Close()

	recs, w2, err := Recover(path, nil, nil)
	if err != nil {
		t.Fatalf("Recover: %v", err)
	}
	defer w2.Close()
	if len(recs) != 3 {
		t.Fatalf("recovered %d records, want the 3 pre-poison ones", len(recs))
	}
}

// TestRecoverCorruptFailpoint verifies the byzantine-disk path: a bit
// flip in the framed stream is handled by the torn-tail discipline (a
// valid prefix survives, the rest is truncated away), recovery is
// idempotent, and the journal accepts appends afterwards.
func TestRecoverCorruptFailpoint(t *testing.T) {
	path := filepath.Join(t.TempDir(), "run.journal")
	w := writeN(t, path, 8)
	if err := w.Close(); err != nil {
		t.Fatalf("Close: %v", err)
	}
	data, err := os.ReadFile(path)
	if err != nil {
		t.Fatalf("ReadFile: %v", err)
	}
	full := len(data)
	data[len(Magic)+(full-len(Magic))*3/4] ^= 0x01
	if err := os.WriteFile(path, data, 0o644); err != nil {
		t.Fatalf("WriteFile: %v", err)
	}

	recs, w2, err := Recover(path, nil, nil)
	if err != nil {
		t.Fatalf("Recover with corrupt stream: %v (want torn-tail handling, not an error)", err)
	}
	if len(recs) >= 8 {
		t.Fatalf("recovered %d records from a corrupted stream, want < 8", len(recs))
	}
	if err := w2.Close(); err != nil {
		t.Fatalf("Close recovered writer: %v", err)
	}
	truncated, err := os.Stat(path)
	if err != nil {
		t.Fatalf("Stat: %v", err)
	}
	if truncated.Size() >= int64(full) {
		t.Fatalf("file size %d after corrupt recovery, want truncated below %d", truncated.Size(), full)
	}

	// The truncation made the loss durable: a re-recovery must agree
	// with the first one.
	recs2, w3, err := Recover(path, nil, nil)
	if err != nil {
		t.Fatalf("clean re-Recover: %v", err)
	}
	if len(recs2) != len(recs) {
		t.Fatalf("re-recovered %d records, want %d (recovery must be idempotent)", len(recs2), len(recs))
	}
	if err := w3.Append("rec", payload{N: 42}); err != nil {
		t.Fatalf("Append after corrupt recovery: %v", err)
	}
	if err := w3.Close(); err != nil {
		t.Fatalf("Close: %v", err)
	}
	recs3, w4, err := Recover(path, nil, nil)
	if err != nil {
		t.Fatalf("final Recover: %v", err)
	}
	defer w4.Close()
	if len(recs3) != len(recs)+1 {
		t.Fatalf("final journal has %d records, want %d", len(recs3), len(recs)+1)
	}
}

// TestRecoverFaultsLeakNoFDs drives Recover's error paths — a file
// without the magic and a directory where the journal should be — and
// poisoned-append cycles in a loop, and asserts the process's open file
// descriptor count does not grow: a failed recovery or append must
// never leave the journal file open.
func TestRecoverFaultsLeakNoFDs(t *testing.T) {
	dir := t.TempDir()
	path := filepath.Join(dir, "run.journal")
	w := writeN(t, path, 5)
	if err := w.Close(); err != nil {
		t.Fatalf("Close: %v", err)
	}
	bogus := filepath.Join(dir, "bogus")
	if err := os.WriteFile(bogus, []byte("not a journal"), 0o644); err != nil {
		t.Fatal(err)
	}

	base := openFDs(t)
	for i := 0; i < 20; i++ {
		for _, p := range []string{bogus, dir} {
			recs, w2, err := Recover(p, nil, nil)
			if err == nil {
				t.Fatalf("Recover(%s) = %d recs, want an error", p, len(recs))
			}
			if w2 != nil {
				t.Fatalf("Recover returned a writer alongside an error")
			}
		}
	}
	for i := 0; i < 10; i++ {
		_, w2, err := Recover(path, nil, nil)
		if err != nil {
			t.Fatalf("Recover: %v", err)
		}
		w2.FailAppends(0, 0)
		if err := w2.Append("rec", payload{N: i}); !errors.Is(err, ErrInjected) {
			t.Fatalf("Append = %v, want ErrInjected", err)
		}
		if err := w2.Close(); err != nil {
			t.Fatalf("Close poisoned writer: %v", err)
		}
	}
	if got := openFDs(t); got > base {
		t.Fatalf("open fds grew from %d to %d across faulted recoveries", base, got)
	}
}
