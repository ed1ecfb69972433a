package atomicfile

import (
	"errors"
	"fmt"
	"io"
	"io/fs"
	"os"
	"path/filepath"
	"strings"
	"testing"
)

func TestWriteFileReplacesAtomically(t *testing.T) {
	path := filepath.Join(t.TempDir(), "out.json")
	for i := 0; i < 3; i++ {
		want := fmt.Sprintf("content %d", i)
		if err := WriteFile(path, func(w io.Writer) error {
			_, err := io.WriteString(w, want)
			return err
		}); err != nil {
			t.Fatal(err)
		}
		got, err := os.ReadFile(path)
		if err != nil {
			t.Fatal(err)
		}
		if string(got) != want {
			t.Fatalf("read %q, want %q", got, want)
		}
	}
}

func TestWriteFileFailureLeavesTargetUntouched(t *testing.T) {
	dir := t.TempDir()
	path := filepath.Join(dir, "out.json")
	if err := os.WriteFile(path, []byte("original"), 0o644); err != nil {
		t.Fatal(err)
	}
	boom := errors.New("boom")
	err := WriteFile(path, func(w io.Writer) error {
		io.WriteString(w, "partial garbage")
		return boom
	})
	if !errors.Is(err, boom) {
		t.Fatalf("err = %v, want the writer's error", err)
	}
	got, err := os.ReadFile(path)
	if err != nil {
		t.Fatal(err)
	}
	if string(got) != "original" {
		t.Fatalf("target corrupted: %q", got)
	}
	entries, err := os.ReadDir(dir)
	if err != nil {
		t.Fatal(err)
	}
	for _, e := range entries {
		if strings.Contains(e.Name(), ".tmp-") {
			t.Fatalf("temp file %s left behind", e.Name())
		}
	}
}

// TestJSONCodec pins the bytes WriteJSON puts on disk (two-space indent,
// trailing newline: the layout every data-root file has always had) and
// ReadJSON's two error shapes.
func TestJSONCodec(t *testing.T) {
	dir := t.TempDir()
	path := filepath.Join(dir, "v.json")
	type rec struct {
		Name  string   `json:"name"`
		Epoch uint64   `json:"epoch"`
		Tags  []string `json:"tags,omitempty"`
	}
	if err := WriteJSON(path, &rec{Name: "a<b", Epoch: 3, Tags: []string{"x"}}); err != nil {
		t.Fatal(err)
	}
	got, err := os.ReadFile(path)
	if err != nil {
		t.Fatal(err)
	}
	want := "{\n  \"name\": \"a\\u003cb\",\n  \"epoch\": 3,\n  \"tags\": [\n    \"x\"\n  ]\n}\n"
	if string(got) != want {
		t.Fatalf("WriteJSON wrote %q, want %q", got, want)
	}
	var back rec
	if err := ReadJSON(path, &back); err != nil || back.Name != "a<b" || back.Epoch != 3 || len(back.Tags) != 1 {
		t.Fatalf("ReadJSON = %+v, %v", back, err)
	}
	if err := ReadJSON(filepath.Join(dir, "missing.json"), &back); !errors.Is(err, fs.ErrNotExist) {
		t.Fatalf("missing file: err = %v, want fs.ErrNotExist", err)
	}
	if err := os.WriteFile(path, []byte("{"), 0o644); err != nil {
		t.Fatal(err)
	}
	if err := ReadJSON(path, &back); err == nil || !strings.Contains(err.Error(), path) {
		t.Fatalf("corrupt file: err = %v, want one naming %s", err, path)
	}
}
