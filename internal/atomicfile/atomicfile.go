// Package atomicfile writes files crash-safely: content is streamed to
// a temporary file in the destination directory, fsynced, and renamed
// over the target. Readers never observe a partial file — after a crash
// the target is either the old complete content or the new complete
// content, which is the property every artifact a resumable run
// persists (repositories, harvested suites) needs.
//
// WriteJSON and ReadJSON are the one codec of every JSON file on a
// campaign data root (campaign.json, report.json, a campaign's
// knowledge.json, lease.json, the knowledge snapshot.json) and of the
// harvested regression suite.
package atomicfile

import (
	"encoding/json"
	"fmt"
	"io"
	"os"
	"path/filepath"
)

// WriteFile writes the content produced by write to path atomically.
// On any error the target is left untouched and the temporary file is
// removed.
func WriteFile(path string, write func(io.Writer) error) error {
	dir := filepath.Dir(path)
	tmp, err := os.CreateTemp(dir, "."+filepath.Base(path)+".tmp-*")
	if err != nil {
		return err
	}
	defer func() {
		if tmp != nil {
			tmp.Close()
			os.Remove(tmp.Name())
		}
	}()
	if err := write(tmp); err != nil {
		return err
	}
	if err := tmp.Sync(); err != nil {
		return err
	}
	if err := tmp.Close(); err != nil {
		return err
	}
	name := tmp.Name()
	tmp = nil // the rename consumes it; nothing left to clean up
	if err := os.Rename(name, path); err != nil {
		os.Remove(name)
		return err
	}
	return nil
}

// WriteJSON writes v to path atomically as JSON indented by two spaces
// and ended by a newline.
func WriteJSON(path string, v any) error {
	return WriteFile(path, func(w io.Writer) error {
		enc := json.NewEncoder(w)
		enc.SetIndent("", "  ")
		return enc.Encode(v)
	})
}

// ReadJSON decodes the JSON file at path into v. A file that cannot be
// read returns the os error unchanged (errors.Is(err, fs.ErrNotExist)
// holds for a missing one); a file that does not decode names path.
func ReadJSON(path string, v any) error {
	data, err := os.ReadFile(path)
	if err != nil {
		return err
	}
	if err := json.Unmarshal(data, v); err != nil {
		return fmt.Errorf("decoding %s: %w", path, err)
	}
	return nil
}
